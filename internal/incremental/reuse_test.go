package incremental_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/incremental"
	"afdx/internal/obs"
)

// pathReuse is one round's trajectory path-cache traffic: the deltas of
// the Deterministic trajectory.incr_path_* counters.
type pathReuse struct {
	hits, recomputes, invalidations int64
}

// TestTrajectoryCacheReuseDecisions pins which paths the trajectory
// cache reuses over a fixed session script: a base round, three fresh
// single-delta peeks, an A/B/A peek alternation, a committed drop and a
// no-delta round. The expected counts are literals, so any change to
// how cached paths are validated that reuses more or fewer paths than
// before fails here, and every round's bounds must still equal a cold
// run's bit for bit.
func TestTrajectoryCacheReuseDecisions(t *testing.T) {
	spec := configgen.DefaultSpec(3)
	spec.NumVLs = 150
	net, err := configgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Deltas are picked by position in the ID-sorted VL list, so the
	// script is a pure function of the generated configuration.
	vls := slices.Clone(net.VLs)
	slices.SortFunc(vls, func(a, b *afdx.VirtualLink) int { return strings.Compare(a.ID, b.ID) })
	bag := func(i int) incremental.Delta {
		v := vls[i]
		ms := v.BAGMs * 2
		if ms > afdx.MaxBAGMs {
			ms = v.BAGMs / 2
		}
		return mustParse(t, fmt.Sprintf("bag %s %g", v.ID, ms))
	}
	smax := func(i int) incremental.Delta {
		return mustParse(t, fmt.Sprintf("smax %s %d", vls[i].ID, vls[i].SMaxBytes/2+afdx.MinFrameBytes))
	}
	drop := func(i int) incremental.Delta { return mustParse(t, "drop "+vls[i].ID) }
	x, y := bag(40), smax(90)

	type round struct {
		name  string
		peek  []incremental.Delta // peeked, not committed
		apply []incremental.Delta // committed (WhatIf)
	}
	script := []round{
		{name: "base"},
		{name: "peek " + bag(7).String(), peek: []incremental.Delta{bag(7)}},
		{name: "peek " + smax(20).String(), peek: []incremental.Delta{smax(20)}},
		{name: "peek " + drop(61).String(), peek: []incremental.Delta{drop(61)}},
		{name: "peek X " + x.String(), peek: []incremental.Delta{x}},
		{name: "peek Y " + y.String(), peek: []incremental.Delta{y}},
		{name: "peek X " + x.String() + " again", peek: []incremental.Delta{x}},
		{name: "commit " + drop(120).String(), apply: []incremental.Delta{drop(120)}},
		{name: "no-delta"},
	}
	// {hits, recomputes, invalidations} per round. Peek Y's 8 hits are
	// base-state outcomes revalidated from the second slot; the repeated
	// X peek is served entirely from the two slots.
	want := []pathReuse{
		{0, 1182, 0},
		{148, 1034, 1034},
		{87, 1095, 1095},
		{11, 1159, 1159},
		{0, 1182, 1182},
		{8, 1174, 1174},
		{1182, 0, 0},
		{60, 1121, 1121},
		{1181, 0, 0},
	}

	for _, workers := range []int{1, 4} {
		opts := incremental.DefaultOptions()
		opts.NC.Parallel, opts.Trajectory.Parallel = workers, workers
		sess, err := incremental.NewSession(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range script {
			reg := obs.NewRegistry()
			ctx := obs.WithRegistry(context.Background(), reg)
			cur := sess.Network()
			var res *incremental.Result
			switch {
			case r.peek != nil:
				if err := incremental.Apply(cur, r.peek...); err != nil {
					t.Fatal(err)
				}
				res, err = sess.Peek(ctx, r.peek...)
			case r.apply != nil:
				if err := incremental.Apply(cur, r.apply...); err != nil {
					t.Fatal(err)
				}
				res, err = sess.WhatIf(ctx, r.apply...)
			default:
				res, err = sess.Analyze(ctx)
			}
			if err != nil {
				t.Fatalf("workers %d, %s: %v", workers, r.name, err)
			}
			label := fmt.Sprintf("workers %d, %s", workers, r.name)
			coldNC, coldTr := coldResults(t, cur, opts)
			mustIdentical(t, label, res.NC, res.Trajectory, coldNC, coldTr)
			snap := reg.Snapshot()
			got := pathReuse{
				hits:          snap.Counter("trajectory.incr_path_hits"),
				recomputes:    snap.Counter("trajectory.incr_path_recomputes"),
				invalidations: snap.Counter("trajectory.incr_path_invalidations"),
			}
			if got != want[i] {
				t.Errorf("%s: path reuse {hits, recomputes, invalidations} = %v, want %v", label, got, want[i])
			}
		}
		sess.Close()
	}
}

func mustParse(t *testing.T, s string) incremental.Delta {
	t.Helper()
	d, err := incremental.ParseDelta(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
