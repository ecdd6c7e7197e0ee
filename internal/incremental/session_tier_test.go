package incremental_test

import (
	"context"
	"fmt"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/incremental"
	"afdx/internal/netcalc"
	"afdx/internal/obs"
)

// TestSessionTierAlternationBitIdentity is the session-level A/B/A
// tier regression: one warm session alternating AnalyzeTier between
// WCNC and FIFO, interleaved with committed and peeked deltas, must answer
// every round bit-identical to a cold run of the same configuration at
// the same tier. Both tiers share the session's one NC cache, so a
// tier that computed a different bound would surface here as a stale
// one.
func TestSessionTierAlternationBitIdentity(t *testing.T) {
	ctx := context.Background()
	net := testNet(t, 9, 20)
	sess, err := incremental.NewSession(net, incremental.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	coldTier := func(cur *afdx.Network, tier netcalc.Analysis) *netcalc.Result {
		t.Helper()
		pg, err := afdx.BuildPortGraph(cur, afdx.Strict)
		if err != nil {
			t.Fatal(err)
		}
		o := netcalc.DefaultOptions()
		o.Analysis = tier
		o.Parallel = 1
		res, err := netcalc.Analyze(pg, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	check := func(step string, tier netcalc.Analysis, res *incremental.Result) {
		t.Helper()
		cold := coldTier(sess.Network(), tier)
		mustEqualMaps(t, step+" PathDelays", res.NC.PathDelays, cold.PathDelays)
		mustEqualMaps(t, step+" FlowDelays", res.NC.FlowDelays, cold.FlowDelays)
		mustEqualMaps(t, step+" Bursts", res.NC.Bursts, cold.Bursts)
	}

	// Alternate the two tiers over the base configuration: every visit
	// after the first is a warm revisit through the shared cache.
	aba := []netcalc.Analysis{
		netcalc.AnalysisWCNC, netcalc.AnalysisFIFO, netcalc.AnalysisWCNC,
		netcalc.AnalysisFIFO, netcalc.AnalysisFIFO, netcalc.AnalysisWCNC,
		netcalc.AnalysisWCNC,
	}
	for i, tier := range aba {
		res, err := sess.AnalyzeTier(ctx, tier)
		if err != nil {
			t.Fatalf("round %d (%v): %v", i, tier, err)
		}
		check("base round", tier, res)
	}

	// A committed delta invalidates the shared cache for both tiers.
	v := net.VLs[0]
	d, err := incremental.ParseDelta(fmt.Sprintf("bag %s %g", v.ID, v.BAGMs*2))
	if err != nil {
		t.Fatal(err)
	}
	for i, tier := range aba {
		res, err := sess.WhatIfTier(ctx, tier, d)
		if err != nil {
			t.Fatalf("whatif round %d (%v): %v", i, tier, err)
		}
		check("post-delta round", tier, res)
		// Re-derive the next delta from the committed state so every
		// WhatIfTier commits a fresh, feasible change.
		cur := sess.Network()
		v = cur.VLs[(i+1)%len(cur.VLs)]
		if v.BAGMs*2 > afdx.MaxBAGMs {
			v = cur.VLs[0]
			if v.BAGMs*2 > afdx.MaxBAGMs {
				break
			}
		}
		d, err = incremental.ParseDelta(fmt.Sprintf("bag %s %g", v.ID, v.BAGMs*2))
		if err != nil {
			t.Fatal(err)
		}
	}

	// PeekTier restores the committed state whatever the tier.
	before, err := sess.AnalyzeTier(ctx, netcalc.AnalysisFIFO)
	if err != nil {
		t.Fatal(err)
	}
	cur := sess.Network()
	var peek incremental.Delta
	for _, vl := range cur.VLs {
		if vl.SMaxBytes/2 >= afdx.MinFrameBytes {
			peek, err = incremental.ParseDelta(fmt.Sprintf("smax %s %d", vl.ID, vl.SMaxBytes/2))
			if err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if _, err := sess.PeekTier(ctx, netcalc.AnalysisWCNC, peek); err != nil {
		t.Fatal(err)
	}
	after, err := sess.AnalyzeTier(ctx, netcalc.AnalysisFIFO)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualMaps(t, "peek rollback", after.NC.PathDelays, before.NC.PathDelays)
}

// The tier is result-neutral, so both tiers run through the session's
// one NC cache: a FIFO peek recomputes exactly the ports the same WCNC
// peek does (the trajectory prefix run after it is a memo hit, not a
// second cache's recompute), and a WCNC round after a FIFO round on an
// unchanged graph recomputes none.
func TestFIFOPeekRecomputesLikeWCNC(t *testing.T) {
	ctx := context.Background()
	net := testNet(t, 9, 20)
	var peek incremental.Delta
	for _, v := range net.VLs {
		if v.BAGMs*2 <= afdx.MaxBAGMs {
			d, err := incremental.ParseDelta(fmt.Sprintf("bag %s %g", v.ID, v.BAGMs*2))
			if err != nil {
				t.Fatal(err)
			}
			peek = d
			break
		}
	}
	recomputes := func(round func(ctx context.Context) (*incremental.Result, error)) int64 {
		t.Helper()
		reg := obs.NewRegistry()
		if _, err := round(obs.WithRegistry(ctx, reg)); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Counter("netcalc.incr_port_recomputes")
	}
	peeked := map[netcalc.Analysis]int64{}
	for _, tier := range []netcalc.Analysis{netcalc.AnalysisWCNC, netcalc.AnalysisFIFO} {
		sess, err := incremental.NewSession(net, incremental.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.AnalyzeTier(ctx, tier); err != nil {
			t.Fatal(err)
		}
		peeked[tier] = recomputes(func(ctx context.Context) (*incremental.Result, error) {
			return sess.PeekTier(ctx, tier, peek)
		})
		if tier == netcalc.AnalysisFIFO {
			if got := recomputes(func(ctx context.Context) (*incremental.Result, error) {
				return sess.AnalyzeTier(ctx, netcalc.AnalysisWCNC)
			}); got != 0 {
				t.Errorf("WCNC round after a FIFO round on an unchanged graph recomputed %d ports, want 0", got)
			}
		}
		sess.Close()
	}
	if w, f := peeked[netcalc.AnalysisWCNC], peeked[netcalc.AnalysisFIFO]; w == 0 || f != w {
		t.Errorf("netcalc.incr_port_recomputes: FIFO peek %d, WCNC peek %d; want equal and nonzero", f, w)
	}
}

func mustEqualMaps[K comparable](t *testing.T, what string, got, want map[K]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, cold has %d", what, len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("%s: key %v: warm %v, cold %v (must be bit-identical)", what, k, g, w)
		}
	}
}
