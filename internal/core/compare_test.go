package core

import (
	"math"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/netcalc"
	"afdx/internal/trajectory"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

func compareFigure2(t *testing.T) *Comparison {
	t.Helper()
	pg, err := afdx.BuildPortGraph(afdx.Figure2Config(), afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compare(pg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompareFigure2PerPath(t *testing.T) {
	c := compareFigure2(t)
	pc, ok := c.PerPath[afdx.PathID{VL: "v1", PathIdx: 0}]
	if !ok {
		t.Fatal("missing v1 comparison")
	}
	if !almostEq(pc.TrajectoryUs, 248) {
		t.Errorf("trajectory bound = %g, want 248", pc.TrajectoryUs)
	}
	if pc.NCUs <= pc.TrajectoryUs {
		t.Errorf("NC bound %g should exceed trajectory %g on figure 2", pc.NCUs, pc.TrajectoryUs)
	}
	if !almostEq(pc.BestUs, pc.TrajectoryUs) {
		t.Errorf("best = %g, want the trajectory bound %g", pc.BestUs, pc.TrajectoryUs)
	}
	if pc.BenefitPct <= 0 {
		t.Errorf("benefit should be positive, got %g%%", pc.BenefitPct)
	}
	if !almostEq(pc.BenefitPct, pc.BestBenefitPct) {
		t.Errorf("best benefit %g should equal trajectory benefit %g here",
			pc.BestBenefitPct, pc.BenefitPct)
	}
}

func TestBestNeverWorseThanEither(t *testing.T) {
	// Mixed frame sizes so that each method wins somewhere.
	n := afdx.Figure2Config()
	n.VLs[0].SMaxBytes = 100
	n.VLs[0].SMinBytes = 100
	n.VLs[2].SMaxBytes = 1500
	pg, err := afdx.BuildPortGraph(n, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compare(pg)
	if err != nil {
		t.Fatal(err)
	}
	sawNCWin, sawTrajWin := false, false
	for pid, pc := range c.PerPath {
		if pc.BestUs > pc.NCUs+1e-9 || pc.BestUs > pc.TrajectoryUs+1e-9 {
			t.Errorf("path %v: best %g exceeds a component bound (nc %g, traj %g)",
				pid, pc.BestUs, pc.NCUs, pc.TrajectoryUs)
		}
		if pc.BestBenefitPct < -1e-9 {
			t.Errorf("path %v: best benefit %g%% must be >= 0", pid, pc.BestBenefitPct)
		}
		if pc.TrajectoryUs > pc.NCUs {
			sawNCWin = true
		}
		if pc.TrajectoryUs < pc.NCUs {
			sawTrajWin = true
		}
	}
	if !sawNCWin || !sawTrajWin {
		t.Errorf("mixed configuration should have wins on both sides (nc=%v traj=%v)",
			sawNCWin, sawTrajWin)
	}
}

func TestSummaryFigure2(t *testing.T) {
	s := compareFigure2(t).Summary()
	if s.NumPaths != 5 {
		t.Fatalf("paths = %d, want 5", s.NumPaths)
	}
	if s.TrajectoryWinFrac != 1 {
		t.Errorf("trajectory should win every figure-2 path, got %g", s.TrajectoryWinFrac)
	}
	if s.MeanBenefitPct <= 0 || s.MaxBenefitPct < s.MeanBenefitPct || s.MinBenefitPct > s.MeanBenefitPct {
		t.Errorf("inconsistent summary %+v", s)
	}
	if s.MinBestPct < 0 {
		t.Errorf("combined approach can never lose: min best %g%%", s.MinBestPct)
	}
}

func TestByBAGGrouping(t *testing.T) {
	n := afdx.Figure2Config()
	n.VLs[0].BAGMs = 2
	n.VLs[1].BAGMs = 2
	pg, err := afdx.BuildPortGraph(n, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compare(pg)
	if err != nil {
		t.Fatal(err)
	}
	rows := c.ByBAG()
	if len(rows) != 2 {
		t.Fatalf("expected BAG groups {2,4}, got %v", rows)
	}
	if rows[0].BAGMs != 2 || rows[0].NumPaths != 2 {
		t.Errorf("first group should be BAG 2 ms with 2 paths: %+v", rows[0])
	}
	if rows[1].BAGMs != 4 || rows[1].NumPaths != 3 {
		t.Errorf("second group should be BAG 4 ms with 3 paths: %+v", rows[1])
	}
}

func TestBySmaxGrouping(t *testing.T) {
	n := afdx.Figure2Config()
	n.VLs[0].SMaxBytes = 100
	n.VLs[0].SMinBytes = 100
	pg, err := afdx.BuildPortGraph(n, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compare(pg)
	if err != nil {
		t.Fatal(err)
	}
	rows := c.BySmax()
	if len(rows) != 2 {
		t.Fatalf("expected s_max groups {100,500}, got %v", rows)
	}
	if rows[0].SMaxBytes != 100 || rows[0].NumPaths != 1 {
		t.Errorf("first group should be 100B with 1 path: %+v", rows[0])
	}
	// The 100B VL is the one where NC wins (paper Fig. 6 trend).
	if rows[0].NCWinsPct != 100 {
		t.Errorf("NC should win on the 100B path: %+v", rows[0])
	}
	if rows[1].NCWinsPct != 0 {
		t.Errorf("NC should lose on the 500B paths: %+v", rows[1])
	}
}

func TestCompareWithCustomOptions(t *testing.T) {
	pg, err := afdx.BuildPortGraph(afdx.Figure2Config(), afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	// Ungrouped NC vs grouped trajectory: trajectory should win by more.
	base, err := Compare(pg)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := CompareWith(pg, netcalc.Options{Grouping: false}, trajectory.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if loose.Summary().MeanBenefitPct <= base.Summary().MeanBenefitPct {
		t.Errorf("benefit vs ungrouped NC (%g%%) should exceed benefit vs grouped NC (%g%%)",
			loose.Summary().MeanBenefitPct, base.Summary().MeanBenefitPct)
	}
}

func TestCompareErrorPropagation(t *testing.T) {
	n := afdx.Figure2Config()
	for _, v := range n.VLs {
		v.BAGMs = 0.25
		v.SMaxBytes = 1518
	}
	pg, err := afdx.BuildPortGraph(n, afdx.Relaxed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compare(pg); err == nil {
		t.Fatal("expected unstable configuration to fail")
	}
}

func TestJitterAndFloorFields(t *testing.T) {
	c := compareFigure2(t)
	pc := c.PerPath[afdx.PathID{VL: "v1", PathIdx: 0}]
	// Floor of v1: three ports of (16 + 40) us = 168 us (s_min = s_max).
	if !almostEq(pc.MinUs, 168) {
		t.Errorf("floor = %g, want 168", pc.MinUs)
	}
	if !almostEq(pc.JitterUs, pc.BestUs-168) {
		t.Errorf("jitter = %g, want best-floor = %g", pc.JitterUs, pc.BestUs-168)
	}
	if pc.JitterUs <= 0 {
		t.Error("jitter must be positive on a contended path")
	}
	// The single-flow path v5 has jitter 0: its bound equals the floor.
	pc5 := c.PerPath[afdx.PathID{VL: "v5", PathIdx: 0}]
	if !almostEq(pc5.MinUs, 112) || !almostEq(pc5.JitterUs, 0) {
		t.Errorf("v5 floor/jitter = %g/%g, want 112/0", pc5.MinUs, pc5.JitterUs)
	}
}

func TestCheckDeadlinesWithBAGDefault(t *testing.T) {
	c := compareFigure2(t)
	rep := c.CheckDeadlines(nil, true)
	// Every bound (<= 293 us) is far below the 4 ms BAG.
	if rep.Total != 5 || rep.BestCertified != 5 || rep.NCCertified != 5 || rep.TrajectoryCertified != 5 {
		t.Errorf("unexpected report: %+v", rep)
	}
	if len(rep.Violations()) != 0 {
		t.Errorf("no violations expected: %v", rep.Violations())
	}
	if rep.String() == "" {
		t.Error("report string empty")
	}
	// Verdicts are sorted by ascending margin.
	for i := 1; i < len(rep.Verdicts); i++ {
		if rep.Verdicts[i].MarginUs < rep.Verdicts[i-1].MarginUs {
			t.Error("verdicts not sorted by margin")
		}
	}
}

func TestCheckDeadlinesExplicit(t *testing.T) {
	c := compareFigure2(t)
	pid := afdx.PathID{VL: "v1", PathIdx: 0}
	// A deadline between the trajectory bound (248) and the NC bound
	// (293): only the trajectory/combined approach certifies the path —
	// the practical payoff the paper's comparison is about.
	rep := c.CheckDeadlines(map[afdx.PathID]float64{pid: 270}, false)
	if rep.Total != 1 {
		t.Fatalf("total = %d, want 1 (others skipped)", rep.Total)
	}
	v := rep.Verdicts[0]
	if v.NCOk || !v.TrajectoryOk || !v.BestOk {
		t.Errorf("verdict %+v: want NC fail, trajectory+best pass", v)
	}
	if !almostEq(v.MarginUs, 270-248) {
		t.Errorf("margin = %g, want 22", v.MarginUs)
	}
	// An impossible deadline is a violation.
	rep2 := c.CheckDeadlines(map[afdx.PathID]float64{pid: 100}, false)
	if len(rep2.Violations()) != 1 {
		t.Errorf("expected one violation, got %v", rep2.Violations())
	}
}
