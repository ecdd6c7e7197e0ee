package conformance

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/netcalc"
	"afdx/internal/trajectory"
)

// TestCampaignClean pins the oracle's ground truth: a small campaign
// over the real engines finds no violation.
func TestCampaignClean(t *testing.T) {
	rep, err := Run(Options{N: 10, Seed: 3, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("real engines violated the lattice: %v", rep.FailingInvariants())
	}
	if rep.Checked != 10 || rep.Skipped != 0 {
		t.Fatalf("checked %d, skipped %d, want 10/0", rep.Checked, rep.Skipped)
	}
}

// TestCampaignCountsWitnessesAboveBest pins the count of paths whose
// largest witness exceeds the certified bound on the 30-configuration
// seed-5 campaign (check.sh's second gate): the grouped trajectory
// makes Best unsound there. The count is reported and leaves the
// campaign clean; making Best sound turns it into a hard zero.
func TestCampaignCountsWitnessesAboveBest(t *testing.T) {
	rep, err := Run(Options{N: 30, Seed: 5, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("real engines violated the lattice: %v", rep.FailingInvariants())
	}
	paths, configs := 0, 0
	for _, v := range rep.Verdicts {
		if v.AboveBest > 0 {
			paths += v.AboveBest
			configs++
		}
	}
	if rep.AboveBestPaths != 146 || rep.AboveBestConfigs != 22 {
		t.Errorf("witnesses above Best on %d path(s) of %d configuration(s), want 146 of 22",
			rep.AboveBestPaths, rep.AboveBestConfigs)
	}
	if paths != rep.AboveBestPaths || configs != rep.AboveBestConfigs {
		t.Errorf("report totals %d/%d, verdicts sum to %d/%d",
			rep.AboveBestPaths, rep.AboveBestConfigs, paths, configs)
	}
}

// TestCampaignParallelDeterminism: the report's verdicts are identical
// for every worker count (timing fields live outside the verdicts).
func TestCampaignParallelDeterminism(t *testing.T) {
	seq, err := Run(Options{N: 8, Seed: 11, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(Options{N: 8, Seed: 11, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Verdicts, par.Verdicts) {
		t.Errorf("verdicts differ between -parallel 1 and -parallel 4:\nseq: %+v\npar: %+v",
			seq.Verdicts, par.Verdicts)
	}
}

// TestCampaignRejectsBadOptions pins the usage contract.
func TestCampaignRejectsBadOptions(t *testing.T) {
	if _, err := Run(Options{N: 0}); err == nil {
		t.Error("N=0 should be rejected")
	}
	if _, err := Run(Options{N: -3}); err == nil {
		t.Error("negative N should be rejected")
	}
}

// TestOracleCatchesInjectedFault is the oracle's own acceptance test:
// a deliberately optimistic Network Calculus engine (bounds halved)
// must be caught, and the shrinker must reduce the reproducing
// configuration to at most 5 VLs.
func TestOracleCatchesInjectedFault(t *testing.T) {
	o := FaultyOracle(FaultNCOptimistic)
	net, err := configgen.Generate(campaignSpec(1, 1)) // a non-tiny config
	if err != nil {
		t.Fatal(err)
	}
	if len(net.VLs) <= 5 {
		t.Fatalf("want a config with > 5 VLs to make shrinking meaningful, got %d", len(net.VLs))
	}
	vs, err := o.Check(net)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("oracle failed to catch the halved NC bounds")
	}
	caught := map[Invariant]bool{}
	for _, v := range vs {
		caught[v.Invariant] = true
	}
	if !caught[InvCombinedMin] {
		t.Errorf("expected a combined-min violation (faulty oracle engine vs the library's), got %v", vs)
	}
	if !caught[InvSimVsNC] {
		t.Errorf("expected a sim-vs-nc violation (halved bound below observed delay), got %v", vs)
	}

	small := o.Shrink(net, InvSimVsNC, 60)
	if n := len(small.VLs); n > 5 {
		t.Errorf("shrinker left %d VLs, want <= 5", n)
	}
	// The shrunk config must still reproduce the violation…
	svs, err := o.Check(small)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range svs {
		if v.Invariant == InvSimVsNC {
			found = true
		}
	}
	if !found {
		t.Errorf("shrunk config no longer reproduces sim-vs-nc: %v", svs)
	}
	// …and stay a valid, loadable configuration.
	if err := small.Validate(afdx.Strict); err != nil {
		t.Errorf("shrunk config does not validate: %v", err)
	}
}

// TestOracleCatchesTrajectoryFault mirrors the NC fault test for the
// other engine.
func TestOracleCatchesTrajectoryFault(t *testing.T) {
	o := FaultyOracle(FaultTrajectoryOptimistic)
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
	if !caught[InvCombinedMin] && !caught[InvSimVsTrajectory] {
		t.Errorf("halved trajectory bounds went uncaught: %v", vs)
	}
}

// TestShrinkPrunesOrphanNodes: dropping VLs must not leave unreferenced
// end systems or switches in the replay corpus.
func TestShrinkPrunesOrphanNodes(t *testing.T) {
	o := FaultyOracle(FaultNCOptimistic)
	net, err := configgen.Generate(campaignSpec(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	small := o.Shrink(net, InvSimVsNC, 40)
	used := map[string]bool{}
	for _, v := range small.VLs {
		for _, p := range v.Paths {
			for _, n := range p {
				used[n] = true
			}
		}
	}
	for _, es := range small.EndSystems {
		if !used[es] {
			t.Errorf("orphan end system %q survived shrinking", es)
		}
	}
	for _, sw := range small.Switches {
		if !used[sw] {
			t.Errorf("orphan switch %q survived shrinking", sw)
		}
	}
}

// TestRegressNetcalcWobble pins PR 2's map-range float-accumulation bug:
// repeated and parallel Network Calculus runs over a configuration with
// many input groups must be bit-identical. The corpus config is also
// re-checked against the full lattice, and a two-priority variant
// exercises the sorted-priority-level accumulation (netcalc only — the
// Trajectory engine is FIFO-only, like the paper's).
func TestRegressNetcalcWobble(t *testing.T) {
	net, err := afdx.LoadJSON(filepath.Join("testdata", "regress-netcalc-wobble.json"), afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := NewOracle().Check(net)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("corpus config violates the lattice: %v", vs)
	}

	// Two-priority variant: demote every other VL and re-run the NC
	// engine repeatedly; any map-iteration float wobble shows up as a
	// run-to-run difference.
	for i, v := range net.VLs {
		if i%2 == 1 {
			v.Priority = 1
		}
	}
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := netcalc.Analyze(pg, netcalc.Options{Grouping: true, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		for _, workers := range []int{1, 3} {
			got, err := netcalc.Analyze(pg, netcalc.Options{Grouping: true, Parallel: workers})
			if err != nil {
				t.Fatal(err)
			}
			for pid, d := range ref.PathDelays {
				if got.PathDelays[pid] != d {
					t.Fatalf("run %d (workers %d): path %v: %v != %v (float wobble regressed)",
						run, workers, pid, got.PathDelays[pid], d)
				}
			}
			for id, pr := range ref.Ports {
				if got.Ports[id].DelayUs != pr.DelayUs {
					t.Fatalf("run %d (workers %d): port %v delay wobbled", run, workers, id)
				}
			}
		}
	}
}

// TestRegressTrajectoryBusyPeriod pins PR 2's sourceBusyPeriod fix: on
// a 95%-utilization configuration the busy-period fixpoint must
// converge (this test completing is the regression), and pushing the
// same configuration over the stability edge must fail promptly with a
// coherent error instead of iterating toward a bail-out.
func TestRegressTrajectoryBusyPeriod(t *testing.T) {
	net, err := afdx.LoadJSON(filepath.Join("testdata", "regress-trajectory-busyperiod.json"), afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	for _, grouping := range []bool{true, false} {
		r, err := trajectory.Analyze(pg, trajectory.Options{Grouping: grouping, Parallel: 1})
		if err != nil {
			t.Fatalf("grouping=%v: %v", grouping, err)
		}
		for pid, d := range r.PathDelays {
			if d <= 0 || d != d { // non-positive or NaN
				t.Fatalf("grouping=%v: path %v has incoherent bound %v", grouping, pid, d)
			}
		}
	}

	// Over the edge: at 40 Mb/s the busiest port's utilization is
	// ~2.4 — both engines must reject the configuration immediately.
	over := net.Clone()
	over.Params.LinkRateMbps = 40
	opg, err := afdx.BuildPortGraph(over, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trajectory.Analyze(opg, trajectory.DefaultOptions()); err == nil {
		t.Error("trajectory accepted an unstable configuration")
	} else if !strings.Contains(err.Error(), "AFDX001") {
		t.Errorf("trajectory error does not cite the stability diagnostic: %v", err)
	}
	if _, err := netcalc.Analyze(opg, netcalc.DefaultOptions()); err == nil {
		t.Error("netcalc accepted an unstable configuration")
	}
}

// TestCampaignBudget: an immediately-expired budget skips scheduling
// but still accounts for every configuration.
func TestCampaignBudget(t *testing.T) {
	rep, err := Run(Options{N: 50, Seed: 1, Parallel: 1, Budget: 1}) // 1ns
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked+rep.Skipped != 50 {
		t.Fatalf("checked %d + skipped %d != 50", rep.Checked, rep.Skipped)
	}
	if rep.Skipped == 0 {
		t.Error("a 1ns budget should skip configurations")
	}
}
