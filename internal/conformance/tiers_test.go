package conformance

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/netcalc"
)

// tiers lists the two NC analysis tiers the equality property compares.
var tiers = []netcalc.Analysis{netcalc.AnalysisWCNC, netcalc.AnalysisFIFO}

// tierOptions returns the oracle's grouped engine options at one tier.
func tierOptions(a netcalc.Analysis) netcalc.Options {
	return netcalc.Options{Grouping: true, Analysis: a, Parallel: 1}
}

// analyzeTiers runs one configuration through both tiers sequentially
// and returns the results keyed by tier.
func analyzeTiers(t *testing.T, net *afdx.Network) map[netcalc.Analysis]*netcalc.Result {
	t.Helper()
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	out := map[netcalc.Analysis]*netcalc.Result{}
	for _, tier := range tiers {
		res, err := netcalc.Analyze(pg, tierOptions(tier))
		if err != nil {
			t.Fatalf("%v tier: %v", tier, err)
		}
		out[tier] = res
	}
	return out
}

// checkLadder asserts FIFO == WCNC bitwise on every path of one
// configuration.
func checkLadder(t *testing.T, label string, byTier map[netcalc.Analysis]*netcalc.Result) {
	t.Helper()
	wcnc := byTier[netcalc.AnalysisWCNC]
	fifo := byTier[netcalc.AnalysisFIFO]
	if len(wcnc.PathDelays) == 0 {
		t.Fatalf("%s: no paths analyzed", label)
	}
	for _, pid := range sortedPathKeys(wcnc.PathDelays) {
		w := wcnc.PathDelays[pid]
		f, ok := fifo.PathDelays[pid]
		if !ok {
			t.Fatalf("%s: %v missing from the FIFO tier", label, pid)
		}
		if f != w {
			t.Errorf("%s: %v: FIFO %v differs from WCNC %v", label, pid, f, w)
		}
	}
}

// TestTierOrderingLintGoldenCorpus runs the cross-tier equality
// property over every analyzable configuration in the lint golden
// corpus. Files constructed to trip a validator (bad BAGs, routing
// loops, …) are skipped — they cannot reach the analysis engines — but
// the test insists several corpus files do make it through, so a
// regression in the loader cannot quietly empty the property.
func TestTierOrderingLintGoldenCorpus(t *testing.T) {
	dir := filepath.Join("..", "lint", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	analyzed := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		net, err := afdx.LoadJSON(filepath.Join(dir, e.Name()), afdx.Strict)
		if err != nil {
			continue // a deliberately-defective corpus entry
		}
		pg, err := afdx.BuildPortGraph(net, afdx.Strict)
		if err != nil {
			continue
		}
		byTier := map[netcalc.Analysis]*netcalc.Result{}
		rejected := 0
		for _, tier := range tiers {
			res, err := netcalc.Analyze(pg, tierOptions(tier))
			if err != nil {
				rejected++
				continue
			}
			byTier[tier] = res
		}
		if rejected > 0 {
			// An unstable corpus entry (e.g. an overloaded port) must be
			// rejected by every tier, not silently analyzed by some.
			if rejected != len(tiers) {
				t.Errorf("%s: %d of %d tiers rejected the config; all or none must",
					e.Name(), rejected, len(tiers))
			}
			continue
		}
		checkLadder(t, e.Name(), byTier)
		analyzed++
	}
	if analyzed < 3 {
		t.Fatalf("only %d lint corpus files were analyzable; the corpus or the loader regressed", analyzed)
	}
}

// TestTierOrderingHundredSeeds is the bulk equality property: 120
// generated configurations spanning the campaign generator's spread,
// each held to FIFO == WCNC on every path.
func TestTierOrderingHundredSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk tier sweep skipped in -short mode")
	}
	for i := 0; i < 120; i++ {
		net, err := configgen.Generate(campaignSpec(17, i))
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		checkLadder(t, net.Name, analyzeTiers(t, net))
	}
}

// TestOracleCatchesFIFOFault proves the tier-ordering invariant has
// teeth: an engine whose FIFO tier is unsoundly "tightened" (bounds
// quartered) leaves the default pipeline untouched, so only the tier
// leg — its equality check and its behavioural chain — can expose it,
// and must.
func TestOracleCatchesFIFOFault(t *testing.T) {
	o := FaultyOracle(FaultFIFOOptimistic)
	net, err := configgen.Generate(campaignSpec(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	vs, err := o.Check(net)
	if err != nil {
		t.Fatal(err)
	}
	caught := map[Invariant]bool{}
	for _, v := range vs {
		caught[v.Invariant] = true
	}
	if !caught[InvTierOrdering] {
		t.Fatalf("oracle failed to catch the quartered FIFO tier: %v", vs)
	}

	small := o.Shrink(net, InvTierOrdering, 60)
	if n := len(small.VLs); n > 5 {
		t.Errorf("shrinker left %d VLs, want <= 5", n)
	}
	svs, err := o.Check(small)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range svs {
		if v.Invariant == InvTierOrdering {
			found = true
		}
	}
	if !found {
		t.Errorf("shrunk config no longer reproduces tier-ordering: %v", svs)
	}
	if err := small.Validate(afdx.Strict); err != nil {
		t.Errorf("shrunk config does not validate: %v", err)
	}
}
