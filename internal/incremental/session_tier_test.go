package incremental_test

import (
	"context"
	"fmt"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/incremental"
	"afdx/internal/netcalc"
)

// TestSessionTierAlternationBitIdentity is the session-level A/B/A
// tier regression: one warm session alternating AnalyzeTier between
// WCNC and FIFO, interleaved with committed and peeked deltas, must answer
// every round bit-identical to a cold run of the same configuration at
// the same tier. A cache that leaked entries across tiers — or failed
// to key the tier into its identity — surfaces here as a stale bound.
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
	// after the first of each tier is a warm revisit through that tier's
	// dedicated cache.
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

	// A committed delta invalidates both tiers' caches consistently.
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
