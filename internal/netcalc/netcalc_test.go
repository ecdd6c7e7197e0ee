package netcalc

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"afdx/internal/afdx"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

func figure2Graph(t *testing.T) *afdx.PortGraph {
	t.Helper()
	pg, err := afdx.BuildPortGraph(afdx.Figure2Config(), afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

// The Figure 2 sample configuration admits closed-form hand computation:
// every VL has BAG 4 ms (rho = 1 bit/us), s_max 500 B (4000 bits,
// C = 40 us at 100 Mb/s), ports have L = 16 us.
func TestFigure2SourcePortDelay(t *testing.T) {
	res, err := Analyze(figure2Graph(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Source port: single VL, h = L + b/R = 16 + 4000/100 = 56 us.
	for _, id := range []afdx.PortID{{From: "e1", To: "S1"}, {From: "e5", To: "S3"}} {
		if got := res.Ports[id].DelayUs; !almostEq(got, 56) {
			t.Errorf("delay at %v = %g, want 56", id, got)
		}
	}
}

func TestFigure2InterSwitchPortDelay(t *testing.T) {
	res, err := Analyze(figure2Graph(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// S1->S3 carries v1, v2 from distinct input links, bursts inflated by
	// the 56 us source delay: h = 16 + 2*(4000+56)/100 = 97.12 us.
	if got := res.Ports[afdx.PortID{From: "S1", To: "S3"}].DelayUs; !almostEq(got, 97.12) {
		t.Errorf("delay at S1->S3 = %g, want 97.12", got)
	}
}

func TestFigure2LastPortGroupedDelay(t *testing.T) {
	res, err := Analyze(figure2Graph(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// S3->e6: two groups of two serialized flows; hand-derived value.
	// Per-flow burst 4000+56+97.12 = 4153.12 bits; group envelope
	// min(8306.24 + 2t, 4000 + 100t) crossing at t* = 4306.24/98;
	// h = 16 + alpha(t*)/100 - t*.
	tStar := 4306.24 / 98
	alphaT := 2 * (4000 + 100*tStar)
	want := 16 + alphaT/100 - tStar
	if got := res.Ports[afdx.PortID{From: "S3", To: "e6"}].DelayUs; !almostEq(got, want) {
		t.Errorf("delay at S3->e6 = %g, want %g", got, want)
	}
}

func TestFigure2PathDelays(t *testing.T) {
	res, err := Analyze(figure2Graph(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tStar := 4306.24 / 98
	wantV1 := 56 + 97.12 + (16 + 2*(4000+100*tStar)/100 - tStar)
	for _, vl := range []string{"v1", "v2", "v3", "v4"} {
		d, err := res.PathDelay(afdx.PathID{VL: vl, PathIdx: 0})
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(d, wantV1) {
			t.Errorf("path delay of %s = %g, want %g", vl, d, wantV1)
		}
	}
	dv5, err := res.PathDelay(afdx.PathID{VL: "v5", PathIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	// v5: source port 56, then S3->e7 alone with burst 4056:
	// 16 + 4056/100 = 56.56.
	if want := 56 + 56.56; !almostEq(dv5, want) {
		t.Errorf("path delay of v5 = %g, want %g", dv5, want)
	}
}

func TestGroupingTightensBounds(t *testing.T) {
	pg := figure2Graph(t)
	with, err := Analyze(pg, Options{Grouping: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Analyze(pg, Options{Grouping: false})
	if err != nil {
		t.Fatal(err)
	}
	// Ungrouped S3->e6: h = 16 + 4*4153.12/100 = 182.1248.
	if got := without.Ports[afdx.PortID{From: "S3", To: "e6"}].DelayUs; !almostEq(got, 182.1248) {
		t.Errorf("ungrouped delay at S3->e6 = %g, want 182.1248", got)
	}
	improvedSomewhere := false
	for pid, d := range with.PathDelays {
		dw := without.PathDelays[pid]
		if d > dw+1e-9 {
			t.Errorf("grouping worsened path %v: %g > %g", pid, d, dw)
		}
		if d < dw-1e-9 {
			improvedSomewhere = true
		}
	}
	if !improvedSomewhere {
		t.Error("grouping should strictly improve at least one path of figure 2")
	}
}

func TestPrefixDelaysAndBursts(t *testing.T) {
	res, err := Analyze(figure2Graph(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// v1 arrives at S1->S3 after the 56 us source-port bound.
	k := FlowPortKey{"v1", afdx.PortID{From: "S1", To: "S3"}}
	if got := res.PrefixDelays[k]; !almostEq(got, 56) {
		t.Errorf("prefix delay of v1 at S1->S3 = %g, want 56", got)
	}
	if got := res.Bursts[k]; !almostEq(got, 4056) {
		t.Errorf("burst of v1 at S1->S3 = %g, want 4056", got)
	}
	k2 := FlowPortKey{"v1", afdx.PortID{From: "S3", To: "e6"}}
	if got := res.PrefixDelays[k2]; !almostEq(got, 56+97.12) {
		t.Errorf("prefix delay of v1 at S3->e6 = %g, want 153.12", got)
	}
}

func TestBacklogBounds(t *testing.T) {
	res, err := Analyze(figure2Graph(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Source port backlog: v(LB(4000,1), beta_{100,16}) = 4000 + 16 bits.
	if got := res.Ports[afdx.PortID{From: "e1", To: "S1"}].BacklogBits; !almostEq(got, 4016) {
		t.Errorf("backlog at e1->S1 = %g, want 4016", got)
	}
	if res.MaxBacklogBits() <= 4016 {
		t.Errorf("max backlog %g should exceed a source port's", res.MaxBacklogBits())
	}
}

func TestUnstablePortRejected(t *testing.T) {
	n := afdx.Figure2Config()
	for _, v := range n.VLs {
		v.BAGMs = 1
		v.SMaxBytes = 1518 // 4 * 12144 bits / 1000 us = 48.6 bits/us: still stable
	}
	// Push past stability: 40 VLs of 12.1 bits/us on S3->e6 would exceed
	// 100 bits/us; instead shrink the BAG below standard with Relaxed mode.
	for _, v := range n.VLs {
		v.BAGMs = 0.25 // 48.6 bits/us each, 4 flows -> 194 bits/us on S3->e6
	}
	pg, err := afdx.BuildPortGraph(n, afdx.Relaxed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(pg, DefaultOptions()); err == nil {
		t.Fatal("expected instability error")
	}
}

func TestDeconvolutionOptionMatchesBurstInflation(t *testing.T) {
	pg := figure2Graph(t)
	classic, err := Analyze(pg, Options{Grouping: true})
	if err != nil {
		t.Fatal(err)
	}
	deconv, err := Analyze(pg, Options{Grouping: true, Deconvolution: true})
	if err != nil {
		t.Fatal(err)
	}
	for pid, d := range classic.PathDelays {
		if dd := deconv.PathDelays[pid]; math.Abs(d-dd) > 1e-3 {
			t.Errorf("path %v: classic %g vs deconvolution %g", pid, d, dd)
		}
	}
}

func TestUnknownPathError(t *testing.T) {
	res, err := Analyze(figure2Graph(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.PathDelay(afdx.PathID{VL: "nope", PathIdx: 0}); err == nil {
		t.Error("expected error for unknown path")
	}
}

func TestMulticastFigure1Analyzes(t *testing.T) {
	pg, err := afdx.BuildPortGraph(afdx.Figure1Config(), afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(pg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Both destinations of the multicast VL v6 must have a bound, and the
	// shared prefix implies both exceed the source-port delay.
	d0, err0 := res.PathDelay(afdx.PathID{VL: "v6", PathIdx: 0})
	d1, err1 := res.PathDelay(afdx.PathID{VL: "v6", PathIdx: 1})
	if err0 != nil || err1 != nil {
		t.Fatal(err0, err1)
	}
	if d0 <= 0 || d1 <= 0 {
		t.Errorf("multicast bounds must be positive: %g, %g", d0, d1)
	}
}

func TestIncreasingSmaxNeverDecreasesBounds(t *testing.T) {
	base := afdx.Figure2Config()
	pgBase, err := afdx.BuildPortGraph(base, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	resBase, err := Analyze(pgBase, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bigger := afdx.Figure2Config()
	bigger.VLs[0].SMaxBytes = 1000
	pgBig, err := afdx.BuildPortGraph(bigger, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	resBig, err := Analyze(pgBig, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for pid, d := range resBase.PathDelays {
		if resBig.PathDelays[pid] < d-1e-9 {
			t.Errorf("path %v: bound decreased from %g to %g when v1 grew",
				pid, d, resBig.PathDelays[pid])
		}
	}
}

func TestStaircaseOptionTightensMultiHopBounds(t *testing.T) {
	pg := figure2Graph(t)
	classic, err := Analyze(pg, Options{Grouping: true})
	if err != nil {
		t.Fatal(err)
	}
	stair, err := Analyze(pg, Options{Grouping: true, StairSteps: 8})
	if err != nil {
		t.Fatal(err)
	}
	// The source port sees no jitter: identical bound.
	src := afdx.PortID{From: "e1", To: "S1"}
	if got, want := stair.Ports[src].DelayUs, classic.Ports[src].DelayUs; !almostEq(got, want) {
		t.Errorf("source port delay with staircases = %g, want %g", got, want)
	}
	// Downstream ports benefit from the floor of the accumulated jitter
	// (J < BAG releases zero extra frames instead of rho*J extra bits).
	for pid, d := range stair.PathDelays {
		if d > classic.PathDelays[pid]+1e-9 {
			t.Errorf("path %v: staircase bound %g exceeds classic %g", pid, d, classic.PathDelays[pid])
		}
	}
	v1 := afdx.PathID{VL: "v1", PathIdx: 0}
	if stair.PathDelays[v1] >= classic.PathDelays[v1] {
		t.Errorf("staircase should strictly tighten v1: %g vs %g",
			stair.PathDelays[v1], classic.PathDelays[v1])
	}
	// Hand-derived with staircases: S1->S3 aggregates two un-inflated
	// 4000-bit bursts (16 + 80 = 96 us), and the grouped S3->e6 delay
	// follows with group bursts of exactly 8000 bits.
	if got := stair.Ports[afdx.PortID{From: "S1", To: "S3"}].DelayUs; !almostEq(got, 96) {
		t.Errorf("staircase delay at S1->S3 = %g, want 96", got)
	}
}

func TestStaircaseMatchesClassicOnSourceOnlyPaths(t *testing.T) {
	// A path with a single switch hop has jitter only at its second
	// port; bounds may tighten there but never change at the source.
	pg := figure2Graph(t)
	stair, err := Analyze(pg, Options{Grouping: true, StairSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stair.PathDelays[afdx.PathID{VL: "v5", PathIdx: 0}] <= 0 {
		t.Error("staircase analysis must produce positive bounds")
	}
}

func TestExplainPerPortDecomposition(t *testing.T) {
	pg := figure2Graph(t)
	res, err := Analyze(pg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ex, err := res.Explain(pg, afdx.PathID{VL: "v1", PathIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Ports) != 3 {
		t.Fatalf("port terms = %d, want 3", len(ex.Ports))
	}
	sum := 0.0
	for _, p := range ex.Ports {
		sum += p.DelayUs
	}
	if !almostEq(sum, ex.DelayUs) {
		t.Errorf("port delays sum to %g, want the path bound %g", sum, ex.DelayUs)
	}
	if !almostEq(ex.Ports[0].DelayUs, 56) || !almostEq(ex.Ports[1].DelayUs, 97.12) {
		t.Errorf("unexpected per-port values: %+v", ex.Ports)
	}
	if ex.Ports[2].NumFlows != 4 {
		t.Errorf("last port flows = %d, want 4", ex.Ports[2].NumFlows)
	}
	if !almostEq(ex.Ports[1].BurstBits, 4056) {
		t.Errorf("burst at S1->S3 = %g, want 4056", ex.Ports[1].BurstBits)
	}
	var buf bytes.Buffer
	if err := ex.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sum of per-port bounds") {
		t.Errorf("rendering missing header: %s", buf.String())
	}
}

func TestExplainUnknownPathNC(t *testing.T) {
	pg := figure2Graph(t)
	res, err := Analyze(pg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Explain(pg, afdx.PathID{VL: "zz", PathIdx: 0}); err == nil {
		t.Fatal("expected error")
	}
}

// comparePortResults requires two results to be bit-identical: same
// ports, same per-priority delays, same propagated envelopes.
func comparePortResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Ports) != len(b.Ports) {
		t.Fatalf("%s: port count %d vs %d", label, len(a.Ports), len(b.Ports))
	}
	for id, pa := range a.Ports {
		pb, ok := b.Ports[id]
		if !ok {
			t.Fatalf("%s: port %v missing", label, id)
		}
		if pa.DelayUs != pb.DelayUs || pa.BacklogBits != pb.BacklogBits || pa.Utilization != pb.Utilization {
			t.Errorf("%s: port %v result differs: %+v vs %+v", label, id, pa, pb)
		}
		if len(pa.DelayByPriority) != len(pb.DelayByPriority) {
			t.Fatalf("%s: port %v priority levels differ", label, id)
		}
		for lvl, d := range pa.DelayByPriority {
			if pb.DelayByPriority[lvl] != d {
				t.Errorf("%s: port %v level %d: %v vs %v", label, id, lvl, d, pb.DelayByPriority[lvl])
			}
		}
	}
	for pid, d := range a.PathDelays {
		if b.PathDelays[pid] != d {
			t.Errorf("%s: path %v: %v vs %v (must be bit-identical)", label, pid, d, b.PathDelays[pid])
		}
	}
	for k, v := range a.Bursts {
		if b.Bursts[k] != v {
			t.Errorf("%s: burst %v: %v vs %v", label, k, v, b.Bursts[k])
		}
	}
	for k, v := range a.PrefixDelays {
		if b.PrefixDelays[k] != v {
			t.Errorf("%s: prefix %v: %v vs %v", label, k, v, b.PrefixDelays[k])
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	// The determinism contract: any worker count yields bit-identical
	// results, on the FIFO sample and on the mixed-priority variant
	// (which exercises the per-level accumulation order).
	for _, cfg := range []struct {
		name string
		net  *afdx.Network
	}{
		{"figure2", afdx.Figure2Config()},
		{"priority", priorityConfig()},
	} {
		pg, err := afdx.BuildPortGraph(cfg.net, afdx.Strict)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Parallel = 1
		seq, err := Analyze(pg, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Parallel = 8
		par, err := Analyze(pg, opts)
		if err != nil {
			t.Fatal(err)
		}
		comparePortResults(t, cfg.name, seq, par)
	}
}

func TestRepeatedRunsBitIdentical(t *testing.T) {
	// Regression for the map-iteration nondeterminism: analyzePort used
	// to iterate InputGroups() and the per-level split in map order, so
	// float accumulation differed run to run. N repeated runs must now
	// agree to the last bit.
	pg, err := afdx.BuildPortGraph(priorityConfig(), afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Analyze(pg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Analyze(pg, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		comparePortResults(t, "repeat", first, again)
	}
}
