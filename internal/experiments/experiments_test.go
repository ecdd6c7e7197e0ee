package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestScenarioBoundsFig3Fig4(t *testing.T) {
	ung, grp, nc, err := ScenarioBounds()
	if err != nil {
		t.Fatal(err)
	}
	if ung != 288 {
		t.Errorf("figure 3 (ungrouped) bound = %g, want 288", ung)
	}
	if grp != 248 {
		t.Errorf("figure 4 (grouped) bound = %g, want 248", grp)
	}
	if ung-grp != 40 {
		t.Errorf("grouping saving = %g, want one 500B frame (40 us)", ung-grp)
	}
	if nc <= grp {
		t.Errorf("NC bound %g should exceed the grouped trajectory %g here", nc, grp)
	}
}

func TestSweepSmaxShape(t *testing.T) {
	pts, err := SweepSmax()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 15 {
		t.Fatalf("got %d points, want 15 (100..1500 step 100)", len(pts))
	}
	// Paper Fig. 7 shape: NC tighter at the small end, Trajectory tighter
	// at the large end, with a crossover in between.
	first, last := pts[0], pts[len(pts)-1]
	if first.NCUs >= first.TrajUs {
		t.Errorf("at 100B NC (%g) should be tighter than Trajectory (%g)", first.NCUs, first.TrajUs)
	}
	if last.TrajUs >= last.NCUs {
		t.Errorf("at 1500B Trajectory (%g) should be tighter than NC (%g)", last.TrajUs, last.NCUs)
	}
	cross := CrossoverSmax(pts)
	if cross < 100 || cross > 600 {
		t.Errorf("crossover at %dB, want within [100,600] (paper: ~500B)", cross)
	}
	// Both bounds are non-decreasing in s_max.
	for i := 1; i < len(pts); i++ {
		if pts[i].NCUs < pts[i-1].NCUs-1e-9 || pts[i].TrajUs < pts[i-1].TrajUs-1e-9 {
			t.Errorf("bounds must grow with s_max: %+v -> %+v", pts[i-1], pts[i])
		}
	}
	// The gap (Trajectory - NC) grows as s_max decreases below the
	// crossover (the paper's stated trend).
	if gap0, gap1 := pts[0].TrajUs-pts[0].NCUs, pts[2].TrajUs-pts[2].NCUs; gap0 <= gap1 {
		t.Errorf("trajectory pessimism should grow as s_max shrinks: gap(100B)=%g gap(300B)=%g",
			gap0, gap1)
	}
}

func TestSweepBAGShape(t *testing.T) {
	pts, err := SweepBAG()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("got %d points, want 8 (1..128 ms)", len(pts))
	}
	// Paper Fig. 8: trajectory flat, NC decreasing with growing BAG.
	for i := 1; i < len(pts); i++ {
		if pts[i].TrajUs != pts[0].TrajUs {
			t.Errorf("trajectory bound should be flat in BAG: %g at %gms vs %g at %gms",
				pts[i].TrajUs, pts[i].BAGMs, pts[0].TrajUs, pts[0].BAGMs)
		}
		if pts[i].NCUs > pts[i-1].NCUs+1e-9 {
			t.Errorf("NC bound should not grow with BAG: %+v -> %+v", pts[i-1], pts[i])
		}
	}
	if pts[0].NCUs <= pts[len(pts)-1].NCUs {
		t.Error("NC bound at BAG=1ms should strictly exceed the bound at BAG=128ms")
	}
}

func TestSurfaceShape(t *testing.T) {
	cells, err := Surface()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8*15 {
		t.Fatalf("got %d cells, want 120", len(cells))
	}
	// Sign change along the s_max axis: negative (NC wins) at 100B,
	// positive (Trajectory wins) at 1500B, for every BAG.
	bySmax := map[int][]float64{}
	for _, c := range cells {
		bySmax[c.SMaxBytes] = append(bySmax[c.SMaxBytes], c.DifferenceUs)
	}
	for _, d := range bySmax[100] {
		if d >= 0 {
			t.Errorf("difference at 100B should be negative (NC tighter), got %g", d)
		}
	}
	for _, d := range bySmax[1500] {
		if d <= 0 {
			t.Errorf("difference at 1500B should be positive (Trajectory tighter), got %g", d)
		}
	}
}

func TestIndustrialTableIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("industrial comparison is expensive")
	}
	r, err := Industrial(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Comparison.Summary()
	if s.NumPaths < 4800 {
		t.Errorf("industrial comparison covers %d paths, want ~5000+", s.NumPaths)
	}
	// Paper Table I qualitative content: positive mean benefit, trajectory
	// tighter on a large majority of paths but not all, combined never
	// worse than NC.
	if s.MeanBenefitPct <= 0 {
		t.Errorf("mean trajectory benefit should be positive, got %g%%", s.MeanBenefitPct)
	}
	if s.TrajectoryWinFrac < 0.75 || s.TrajectoryWinFrac >= 1 {
		t.Errorf("trajectory win fraction = %g, want a large majority but not all (paper ~0.9)",
			s.TrajectoryWinFrac)
	}
	if s.MinBenefitPct >= 0 {
		t.Error("some paths should favour NC (negative min benefit)")
	}
	if s.MinBestPct < 0 {
		t.Errorf("combined approach must never lose to NC, min best = %g%%", s.MinBestPct)
	}
	if s.MeanBestPct < s.MeanBenefitPct {
		t.Error("combined mean benefit cannot be below trajectory mean benefit")
	}
}

func TestIndustrialFig5Fig6Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("industrial comparison is expensive")
	}
	r, err := Industrial(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byBag := r.Comparison.ByBAG()
	if len(byBag) < 6 {
		t.Fatalf("expected most harmonic BAG values populated, got %d", len(byBag))
	}
	// Fig 5 trend: short-BAG groups should on average benefit at least as
	// much as the longest-BAG group.
	if byBag[0].MeanBenefitPct < byBag[len(byBag)-1].MeanBenefitPct-5 {
		t.Errorf("fig5 trend violated: benefit %g%% at BAG %gms vs %g%% at %gms",
			byBag[0].MeanBenefitPct, byBag[0].BAGMs,
			byBag[len(byBag)-1].MeanBenefitPct, byBag[len(byBag)-1].BAGMs)
	}
	bySmax := r.Comparison.BySmax()
	if len(bySmax) < 10 {
		t.Fatalf("expected most s_max values populated, got %d", len(bySmax))
	}
	// Fig 6 trend: NC wins more often on the smallest frames than on the
	// largest.
	small, large := bySmax[0], bySmax[len(bySmax)-1]
	if small.NCWinsPct <= large.NCWinsPct {
		t.Errorf("fig6 trend violated: NC wins %g%% at %dB vs %g%% at %dB",
			small.NCWinsPct, small.SMaxBytes, large.NCWinsPct, large.SMaxBytes)
	}
}

func TestIndustrialCacheIsStable(t *testing.T) {
	if testing.Short() {
		t.Skip("industrial comparison is expensive")
	}
	a, err := Industrial(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Industrial(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same seed should return the cached result")
	}
}

func TestSimCheckNoViolations(t *testing.T) {
	r, err := SimCheck(10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Violations != 0 {
		t.Errorf("%d bound violations against sound analyses", r.Violations)
	}
	if r.NumPaths != 5 {
		t.Errorf("checked %d paths, want 5", r.NumPaths)
	}
	if r.TightnessNC.Max > 1 {
		t.Errorf("simulated delay / NC bound ratio %g exceeds 1", r.TightnessNC.Max)
	}
}

func TestRegistryRunsAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment including the industrial ones")
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, Config{Seed: 1}); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Error("experiment produced no output")
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("table1"); !ok {
		t.Error("table1 should exist")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown ID should not resolve")
	}
}

func TestFig7OutputMentionsCrossover(t *testing.T) {
	e, _ := ByID("fig7")
	var buf bytes.Buffer
	if err := e.Run(&buf, Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "crossover") {
		t.Error("fig7 output should state the measured crossover")
	}
}

func TestAblationsOrdering(t *testing.T) {
	rows, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// A missing row must fail, not read as a zero bound.
	row := func(name string) AblationRow {
		t.Helper()
		r, ok := byName[name]
		if !ok {
			t.Fatalf("ablation row %q missing", name)
		}
		return r
	}
	// Grouping tightens both methods at both sizes.
	if row("NC, grouping (paper WCNC)").V1At500BUs >= row("NC, no grouping").V1At500BUs {
		t.Error("NC grouping should tighten the 500B bound")
	}
	if row("Trajectory, grouping (paper Fig 4)").V1At500BUs >= row("Trajectory, no grouping (paper Fig 3)").V1At500BUs {
		t.Error("trajectory grouping should tighten the 500B bound")
	}
	// Staircase envelopes tighten NC strictly on this multi-hop config.
	if row("NC, grouping + staircase envelopes").V1At500BUs >= row("NC, grouping (paper WCNC)").V1At500BUs {
		t.Error("staircase envelopes should tighten grouped NC")
	}
	// The shared-transition refinement only bites in the small-frame regime.
	base := row("Trajectory, grouping (paper Fig 4)")
	shared := row("Trajectory, grouping, shared-transition refinement")
	if shared.V1At500BUs != base.V1At500BUs {
		t.Error("shared-transition should not change the uniform-frame bound")
	}
	if shared.V1At100BUs >= base.V1At100BUs {
		t.Error("shared-transition should tighten the small-frame bound")
	}
}

func TestPessimismSandwich(t *testing.T) {
	rows, err := Pessimism()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("expected 5 paths, got %d", len(rows))
	}
	sawOptimism := false
	for _, r := range rows {
		if r.AchievableUs > r.NCUs+1e-6 {
			t.Errorf("path %v: achievable %g above the NC bound %g", r.Path, r.AchievableUs, r.NCUs)
		}
		if r.NCRatio < 1-1e-9 {
			t.Errorf("path %v: NC ratio %g below 1", r.Path, r.NCRatio)
		}
		if r.TrajRatio < 1-1e-9 {
			sawOptimism = true
		}
	}
	if !sawOptimism {
		t.Error("the search should exhibit the grouped trajectory optimism on some path")
	}
}

func TestDeadlineStudyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("industrial comparison is expensive")
	}
	rep, err := DeadlineStudy(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total < 4800 {
		t.Errorf("total = %d, want ~5000", rep.Total)
	}
	// The combined approach can never certify fewer paths than either
	// method alone.
	if rep.BestCertified < rep.NCCertified || rep.BestCertified < rep.TrajectoryCertified {
		t.Errorf("combined certifies %d, below a component (%d NC, %d trajectory)",
			rep.BestCertified, rep.NCCertified, rep.TrajectoryCertified)
	}
	// Bounds being positive, some short-BAG paths are expected to miss.
	if rep.BestCertified == rep.Total {
		t.Log("note: every path certified this seed (allowed, just unusual)")
	}
}

func TestRobustnessAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple industrial comparisons are expensive")
	}
	rows, err := Robustness(Config{}, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Summary.MeanBenefitPct <= 0 {
			t.Errorf("seed %d: mean benefit %g%% must stay positive", r.Seed, r.Summary.MeanBenefitPct)
		}
		if r.Summary.TrajectoryWinFrac < 0.75 {
			t.Errorf("seed %d: trajectory wins %g, want a large majority", r.Seed, r.Summary.TrajectoryWinFrac)
		}
		if r.Summary.MinBestPct < 0 {
			t.Errorf("seed %d: combined min %g%% must be >= 0", r.Seed, r.Summary.MinBestPct)
		}
	}
}

func TestPriorityStudyShape(t *testing.T) {
	rows, err := PriorityStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.SimMaxUs > r.SPUs+1e-6 {
			t.Errorf("path %v: simulated %g above the SP bound %g", r.Path, r.SimMaxUs, r.SPUs)
		}
		if r.Priority == 0 && r.Path.VL != "v5" && r.SPUs >= r.FIFOUs {
			t.Errorf("high-priority path %v should tighten: %g vs FIFO %g", r.Path, r.SPUs, r.FIFOUs)
		}
		if r.Priority > 0 && r.SPUs < r.FIFOUs {
			t.Errorf("low-priority path %v should not tighten: %g vs FIFO %g", r.Path, r.SPUs, r.FIFOUs)
		}
	}
}

func TestScalingMonotonicity(t *testing.T) {
	rows, err := Scaling(Config{Seed: 1}, []int{50, 150})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[1].NumVLs <= rows[0].NumVLs || rows[1].NumPaths <= rows[0].NumPaths {
		t.Errorf("larger spec should yield a larger network: %+v", rows)
	}
	for _, r := range rows {
		if r.CompareSec <= 0 {
			t.Errorf("compare time must be positive: %+v", r)
		}
		if r.Summary.MinBestPct < 0 {
			t.Errorf("combined approach must never lose: %+v", r.Summary)
		}
	}
}
