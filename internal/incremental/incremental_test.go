// Tests live in package incremental_test: they drive the session
// through its exported API only.
package incremental_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/incremental"
	"afdx/internal/netcalc"
	"afdx/internal/trajectory"
)

func testNet(t testing.TB, seed int64, vls int) *afdx.Network {
	t.Helper()
	spec := configgen.DefaultSpec(seed)
	spec.NumSwitches = 3
	spec.ESPerSwitch = 3
	spec.NumVLs = vls
	net, err := configgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func coldResults(t testing.TB, net *afdx.Network, opts incremental.Options) (*netcalc.Result, *trajectory.Result) {
	t.Helper()
	pg, err := afdx.BuildPortGraph(net, opts.Mode)
	if err != nil {
		t.Fatal(err)
	}
	ncOpts := opts.NC
	ncOpts.Parallel = 1
	trOpts := opts.Trajectory
	trOpts.Parallel = 1
	nc, err := netcalc.Analyze(pg, ncOpts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trajectory.Analyze(pg, trOpts)
	if err != nil {
		t.Fatal(err)
	}
	return nc, tr
}

// mustIdentical asserts bitwise equality of the full engine outcomes —
// path bounds, per-port results, burst and prefix maps, trajectory
// details — between a session round and a cold recompute.
func mustIdentical(t *testing.T, step string, nc *netcalc.Result, tr *trajectory.Result, coldNC *netcalc.Result, coldTr *trajectory.Result) {
	t.Helper()
	if !reflect.DeepEqual(nc.PathDelays, coldNC.PathDelays) {
		t.Fatalf("%s: netcalc path delays diverge from cold recompute", step)
	}
	if !reflect.DeepEqual(nc.Ports, coldNC.Ports) {
		t.Fatalf("%s: netcalc port results diverge from cold recompute", step)
	}
	if !reflect.DeepEqual(nc.Bursts, coldNC.Bursts) {
		t.Fatalf("%s: netcalc bursts diverge from cold recompute", step)
	}
	if !reflect.DeepEqual(nc.PrefixDelays, coldNC.PrefixDelays) {
		t.Fatalf("%s: netcalc prefix delays diverge from cold recompute", step)
	}
	if !reflect.DeepEqual(tr.PathDelays, coldTr.PathDelays) {
		t.Fatalf("%s: trajectory path delays diverge from cold recompute", step)
	}
	if !reflect.DeepEqual(tr.Details, coldTr.Details) {
		t.Fatalf("%s: trajectory details diverge from cold recompute", step)
	}
}

// randomDelta draws one applicable tightening/loosening delta against
// the current configuration; stash carries VLs dropped earlier so they
// can be re-added (an A/B/A alternation back to an earlier state).
func randomDelta(rng *rand.Rand, cur *afdx.Network, stash *[]*afdx.VirtualLink) *incremental.Delta {
	pickVL := func(ok func(*afdx.VirtualLink) bool) *afdx.VirtualLink {
		var cands []*afdx.VirtualLink
		for _, v := range cur.VLs {
			if ok(v) {
				cands = append(cands, v)
			}
		}
		if len(cands) == 0 {
			return nil
		}
		return cands[rng.Intn(len(cands))]
	}
	for tries := 0; tries < 10; tries++ {
		switch rng.Intn(6) {
		case 0: // double a BAG
			if v := pickVL(func(v *afdx.VirtualLink) bool { return v.BAGMs < afdx.MaxBAGMs }); v != nil {
				return &incremental.Delta{Op: incremental.OpSetBAG, VL: v.ID, BAGMs: v.BAGMs * 2}
			}
		case 1: // halve a BAG
			if v := pickVL(func(v *afdx.VirtualLink) bool { return v.BAGMs > afdx.MinBAGMs }); v != nil {
				return &incremental.Delta{Op: incremental.OpSetBAG, VL: v.ID, BAGMs: v.BAGMs / 2}
			}
		case 2: // halve an s_max
			if v := pickVL(func(v *afdx.VirtualLink) bool { return v.SMaxBytes/2 >= afdx.MinFrameBytes }); v != nil {
				return &incremental.Delta{Op: incremental.OpSetSMax, VL: v.ID, SMaxBytes: v.SMaxBytes / 2}
			}
		case 3: // drop a VL (stashed for later re-add)
			if len(cur.VLs) > 2 {
				v := cur.VLs[rng.Intn(len(cur.VLs))]
				vl := *v
				vl.Paths = append([][]string(nil), v.Paths...)
				*stash = append(*stash, &vl)
				return &incremental.Delta{Op: incremental.OpRemoveVL, VL: v.ID}
			}
		case 4: // re-add a previously dropped VL, bit-identical (A/B/A)
			if n := len(*stash); n > 0 {
				vl := (*stash)[n-1]
				*stash = (*stash)[:n-1]
				return &incremental.Delta{Op: incremental.OpAddVL, Add: vl}
			}
		case 5: // reroute: rotate a multi-path VL's path list
			if v := pickVL(func(v *afdx.VirtualLink) bool { return len(v.Paths) >= 2 }); v != nil {
				rot := append(append([][]string(nil), v.Paths[1:]...), v.Paths[0])
				return &incremental.Delta{Op: incremental.OpReroute, VL: v.ID, Paths: rot}
			}
		}
	}
	return nil
}

// TestDeltaSequenceBitIdentity is the what-if layer's core property
// test: a 20-step random delta sequence over a generated configuration,
// where after every step the session's results — at Parallel 1 and at
// Parallel 4, with the trajectory prefix bounds taken from the round's
// own WCNC run — are bitwise identical to cold engine runs on the
// mutated configuration, whose trajectory run computes its own prefix.
func TestDeltaSequenceBitIdentity(t *testing.T) {
	net := testNet(t, 42, 15)
	opts := incremental.DefaultOptions()
	opts.NC.Parallel = 1
	opts.Trajectory.Parallel = 1
	sessSeq, err := incremental.NewSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	optsPar := opts
	optsPar.NC.Parallel = 4
	optsPar.Trajectory.Parallel = 4
	sessPar, err := incremental.NewSession(net, optsPar)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	rng := rand.New(rand.NewSource(7))
	var stash []*afdx.VirtualLink
	for step := 0; step < 20; step++ {
		d := randomDelta(rng, sessSeq.Network(), &stash)
		if d == nil {
			continue
		}
		resSeq, err := sessSeq.WhatIf(ctx, *d)
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, d, err)
		}
		resPar, err := sessPar.WhatIf(ctx, *d)
		if err != nil {
			t.Fatalf("step %d (%s) parallel: %v", step, d, err)
		}
		coldNC, coldTr := coldResults(t, sessSeq.Network(), opts)
		label := d.String()
		mustIdentical(t, "seq after "+label, resSeq.NC, resSeq.Trajectory, coldNC, coldTr)
		mustIdentical(t, "par after "+label, resPar.NC, resPar.Trajectory, coldNC, coldTr)
		if !reflect.DeepEqual(resSeq.PerPath, resPar.PerPath) {
			t.Fatalf("after %s: combined comparison differs between worker counts", label)
		}
	}
}

// A rejected delta batch must leave the session untouched.
func TestApplyIsAtomic(t *testing.T) {
	net := testNet(t, 5, 10)
	sess, err := incremental.NewSession(net, incremental.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	before, err := sess.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	good := incremental.Delta{Op: incremental.OpSetBAG, VL: net.VLs[0].ID, BAGMs: net.VLs[0].BAGMs}
	bad := incremental.Delta{Op: incremental.OpSetBAG, VL: "no-such-vl", BAGMs: 4}
	if err := sess.Apply(good, bad); err == nil {
		t.Fatal("Apply with an invalid delta unexpectedly succeeded")
	}
	after, err := sess.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.NC.PathDelays, after.NC.PathDelays) {
		t.Fatal("rejected batch still changed the session's configuration")
	}
}

// A batch whose analysis fails must not be committed: after WhatIf
// errors (the trajectory engine rejects a mixed-priority network), the
// session still holds its previous configuration and analyses it.
func TestWhatIfFailureDoesNotCommit(t *testing.T) {
	net := testNet(t, 7, 8)
	sess, err := incremental.NewSession(net, incremental.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before, err := sess.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	d := incremental.Delta{Op: incremental.OpSetPriority, VL: net.VLs[0].ID, Priority: net.VLs[0].Priority + 1}
	if _, err := sess.WhatIf(ctx, d); err == nil {
		t.Fatal("WhatIf on a mixed-priority network unexpectedly succeeded")
	}
	if !reflect.DeepEqual(sess.Network(), net) {
		t.Error("a WhatIf whose analysis failed still changed the session's configuration")
	}
	after, err := sess.Analyze(ctx)
	if err != nil {
		t.Fatalf("Analyze after a failed WhatIf: %v", err)
	}
	if !reflect.DeepEqual(after.PerPath, before.PerPath) {
		t.Error("Analyze after a failed WhatIf differs from the round before it")
	}
}

func TestParseDeltaRoundTrip(t *testing.T) {
	for _, line := range []string{
		"bag v1 16",
		"smax v2 200",
		"priority v1 1",
		"drop v5",
		"reroute v1 es1,s1,es2 es1,s2,es3",
	} {
		d, err := incremental.ParseDelta(line)
		if err != nil {
			t.Fatalf("ParseDelta(%q): %v", line, err)
		}
		if got := d.String(); got != line {
			t.Errorf("ParseDelta(%q).String() = %q", line, got)
		}
	}
	addLine := `add {"id":"v9","source":"es1","bagMs":4,"sMaxBytes":200,"sMinBytes":64,"paths":[["es1","s1","es2"]]}`
	d, err := incremental.ParseDelta(addLine)
	if err != nil {
		t.Fatal(err)
	}
	if d.Op != incremental.OpAddVL || d.Add == nil || d.Add.ID != "v9" || d.Add.BAGMs != 4 {
		t.Fatalf("add delta parsed wrong: %+v", d)
	}
	for _, bad := range []string{"", "bag v1", "smax v1 x", "teleport v1", "reroute v1 one-node"} {
		if _, err := incremental.ParseDelta(bad); err == nil {
			t.Errorf("ParseDelta(%q) unexpectedly succeeded", bad)
		}
	}
}
