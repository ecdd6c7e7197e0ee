package trajectory

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/netcalc"
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

// Hand-derived bounds on the paper's Figure 2 configuration (all VLs:
// BAG 4 ms, s_max 500 B, C = 40 us, L = 16 us per port):
//
// v1 (e1 -> S1 -> S3 -> e6), grouped:
//
//	interference: v1 (40) + v2 (40) + serialized {v3,v4} (40) = 120
//	transitions:  max C at S1->S3 (40) + at S3->e6 (40)       =  80
//	latencies:    3 * 16                                      =  48
//	total                                                     = 248 us
//
// Without grouping the {v3,v4} cap disappears: 288 us (the paper's
// Figure 3 impossible simultaneous-arrival scenario).
func TestFigure2TrajectoryGrouped(t *testing.T) {
	res, err := Analyze(figure2Graph(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, vl := range []string{"v1", "v2", "v3", "v4"} {
		d, err := res.PathDelay(afdx.PathID{VL: vl, PathIdx: 0})
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(d, 248) {
			t.Errorf("grouped trajectory bound of %s = %g, want 248", vl, d)
		}
	}
}

func TestFigure2TrajectoryUngrouped(t *testing.T) {
	res, err := Analyze(figure2Graph(t), Options{Grouping: false})
	if err != nil {
		t.Fatal(err)
	}
	d, err := res.PathDelay(afdx.PathID{VL: "v1", PathIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(d, 288) {
		t.Errorf("ungrouped trajectory bound of v1 = %g, want 288", d)
	}
}

func TestFigure2SingleFlowPath(t *testing.T) {
	res, err := Analyze(figure2Graph(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d, err := res.PathDelay(afdx.PathID{VL: "v5", PathIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	// v5 crosses two ports alone: C + deltaC + 2L = 40 + 40 + 32 = 112,
	// which equals the exact worst case 2*(C+L).
	if !almostEq(d, 112) {
		t.Errorf("trajectory bound of v5 = %g, want 112", d)
	}
}

func TestGroupingNeverWorsens(t *testing.T) {
	pg := figure2Graph(t)
	with, err := Analyze(pg, Options{Grouping: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Analyze(pg, Options{Grouping: false})
	if err != nil {
		t.Fatal(err)
	}
	for pid, d := range with.PathDelays {
		if d > without.PathDelays[pid]+1e-9 {
			t.Errorf("grouping worsened %v: %g > %g", pid, d, without.PathDelays[pid])
		}
	}
}

func TestTrajectoryTighterThanNCOnFigure2(t *testing.T) {
	// On Figure 2 every VL has equal frame sizes, the regime where the
	// paper reports the Trajectory approach winning.
	pg := figure2Graph(t)
	tr, err := Analyze(pg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nc, err := netcalc.Analyze(pg, netcalc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for pid, d := range tr.PathDelays {
		if d > nc.PathDelays[pid]+1e-9 {
			t.Errorf("path %v: trajectory %g exceeds NC %g", pid, d, nc.PathDelays[pid])
		}
	}
}

func TestSmallFrameFlipsComparison(t *testing.T) {
	// Paper Fig. 7: when v1's frames become much smaller than those it
	// meets, the transition term keeps the Trajectory bound high while
	// the NC bound shrinks, and NC becomes the tighter method.
	n := afdx.Figure2Config()
	n.VLs[0].SMaxBytes = 100
	n.VLs[0].SMinBytes = 100
	pg, err := afdx.BuildPortGraph(n, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Analyze(pg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nc, err := netcalc.Analyze(pg, netcalc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pid := afdx.PathID{VL: "v1", PathIdx: 0}
	if tr.PathDelays[pid] <= nc.PathDelays[pid] {
		t.Errorf("at s_max=100B NC (%g) should beat trajectory (%g)",
			nc.PathDelays[pid], tr.PathDelays[pid])
	}
}

func TestTrajectoryFlatInOwnBAG(t *testing.T) {
	// Paper Fig. 8: the trajectory bound of v1 does not depend on v1's
	// BAG (as long as busy periods stay below one BAG).
	var prev float64
	for i, bag := range []float64{1, 2, 4, 8, 16, 32, 64, 128} {
		n := afdx.Figure2Config()
		n.VLs[0].BAGMs = bag
		pg, err := afdx.BuildPortGraph(n, afdx.Strict)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(pg, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		d := res.PathDelays[afdx.PathID{VL: "v1", PathIdx: 0}]
		if i > 0 && !almostEq(d, prev) {
			t.Errorf("BAG %g ms: bound %g differs from %g", bag, d, prev)
		}
		prev = d
	}
}

func TestPathDetailFields(t *testing.T) {
	res, err := Analyze(figure2Graph(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	det := res.Details[afdx.PathID{VL: "v1", PathIdx: 0}]
	if det.NumInterferers != 4 {
		t.Errorf("v1 has 4 interferers (incl. itself), got %d", det.NumInterferers)
	}
	if !almostEq(det.BusyPeriodUs, 40) {
		t.Errorf("source busy period = %g, want 40 (v1 alone on e1)", det.BusyPeriodUs)
	}
	if det.NumCandidates < 1 {
		t.Error("at least the t=0 candidate must be evaluated")
	}
	if det.CriticalT != 0 {
		t.Errorf("critical offset should be 0 on this light load, got %g", det.CriticalT)
	}
}

func TestPrefixTrajectoryModeTightens(t *testing.T) {
	pg := figure2Graph(t)
	ncMode, err := Analyze(pg, Options{Grouping: true, PrefixMode: PrefixNC})
	if err != nil {
		t.Fatal(err)
	}
	trMode, err := Analyze(pg, Options{Grouping: true, PrefixMode: PrefixTrajectory})
	if err != nil {
		t.Fatal(err)
	}
	for pid, d := range trMode.PathDelays {
		if d > ncMode.PathDelays[pid]+1e-9 {
			t.Errorf("path %v: PrefixTrajectory %g worse than PrefixNC %g",
				pid, d, ncMode.PathDelays[pid])
		}
	}
}

func TestDeltaPlacementAblation(t *testing.T) {
	pg := figure2Graph(t)
	recv, err := Analyze(pg, Options{Grouping: true})
	if err != nil {
		t.Fatal(err)
	}
	first, err := Analyze(pg, Options{Grouping: true, DeltaAtFirstNode: true})
	if err != nil {
		t.Fatal(err)
	}
	// On Figure 2 all frames are equal so both conventions agree exactly.
	for pid, d := range recv.PathDelays {
		if !almostEq(d, first.PathDelays[pid]) {
			t.Errorf("path %v: conventions disagree on uniform frames: %g vs %g",
				pid, d, first.PathDelays[pid])
		}
	}
	// With a small v1 they must differ on v1's path (the source port's
	// largest frame is v1's own 100B, the receiving ports' is 500B).
	n := afdx.Figure2Config()
	n.VLs[0].SMaxBytes = 100
	n.VLs[0].SMinBytes = 100
	pg2, err := afdx.BuildPortGraph(n, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	recv2, err := Analyze(pg2, Options{Grouping: true})
	if err != nil {
		t.Fatal(err)
	}
	first2, err := Analyze(pg2, Options{Grouping: true, DeltaAtFirstNode: true})
	if err != nil {
		t.Fatal(err)
	}
	pid := afdx.PathID{VL: "v1", PathIdx: 0}
	if recv2.PathDelays[pid] <= first2.PathDelays[pid] {
		t.Errorf("receiving-node convention (%g) should exceed first-node (%g) for a small v1",
			recv2.PathDelays[pid], first2.PathDelays[pid])
	}
}

func TestBusyPeriodWithCompetingSourceFlows(t *testing.T) {
	// Two VLs on the same source end system: the busy period of the
	// shared source port covers both frames.
	n := afdx.Figure2Config()
	n.VLs = append(n.VLs, &afdx.VirtualLink{
		ID: "v6", Source: "e1", BAGMs: 4, SMaxBytes: 500, SMinBytes: 500,
		Paths: [][]string{{"e1", "S1", "S3", "e6"}},
	})
	pg, err := afdx.BuildPortGraph(n, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(pg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	det := res.Details[afdx.PathID{VL: "v1", PathIdx: 0}]
	if !almostEq(det.BusyPeriodUs, 80) {
		t.Errorf("busy period with two source VLs = %g, want 80", det.BusyPeriodUs)
	}
}

func TestUnstableConfigurationRejected(t *testing.T) {
	n := afdx.Figure2Config()
	for _, v := range n.VLs {
		v.BAGMs = 0.25
		v.SMaxBytes = 1518
	}
	pg, err := afdx.BuildPortGraph(n, afdx.Relaxed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(pg, DefaultOptions()); err == nil {
		t.Fatal("expected instability error")
	}
}

func TestUnknownPath(t *testing.T) {
	res, err := Analyze(figure2Graph(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.PathDelay(afdx.PathID{VL: "zz", PathIdx: 3}); err == nil {
		t.Error("expected error for unknown path")
	}
}

func TestFrameCount(t *testing.T) {
	cases := []struct {
		x, t float64
		want int
	}{
		{-1, 100, 1}, // never below one frame: flows are asynchronous
		{0, 100, 1},
		{50, 100, 1},
		{100, 100, 2},
		{250, 100, 3},
	}
	for _, c := range cases {
		if got := frameCount(c.x, c.t); got != c.want {
			t.Errorf("frameCount(%g,%g) = %d, want %d", c.x, c.t, got, c.want)
		}
	}
}

func TestHighLoadCountsMultipleFrames(t *testing.T) {
	// Shrink BAGs until busy periods span several frames of the source
	// flow: the bound must grow accordingly (not stay at the 1-frame
	// approximation).
	n := afdx.Figure2Config()
	for _, v := range n.VLs {
		v.BAGMs = 1
		v.SMaxBytes = 1518
		v.SMinBytes = 1518
	}
	pg, err := afdx.BuildPortGraph(n, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(pg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pid := afdx.PathID{VL: "v1", PathIdx: 0}
	// C = 121.44 us; with one frame per flow the interference would be
	// 3*121.44 + transitions 2*121.44 + 48 = 655.2; the bound must not
	// be below that.
	if res.PathDelays[pid] < 655 {
		t.Errorf("high-load bound %g suspiciously low", res.PathDelays[pid])
	}
}

func TestMulticastFigure1(t *testing.T) {
	pg, err := afdx.BuildPortGraph(afdx.Figure1Config(), afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(pg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PathDelays) != len(pg.Net.AllPaths()) {
		t.Errorf("got %d path bounds, want %d", len(res.PathDelays), len(pg.Net.AllPaths()))
	}
	for pid, d := range res.PathDelays {
		if d <= 0 || math.IsInf(d, 0) || math.IsNaN(d) {
			t.Errorf("path %v: bad bound %g", pid, d)
		}
	}
}

func TestSharedTransitionRefinement(t *testing.T) {
	// On the untouched Figure 2 configuration the bridging candidates at
	// both transitions include a 500B flow, so the refinement changes
	// nothing.
	pg := figure2Graph(t)
	base, err := Analyze(pg, Options{Grouping: true})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Analyze(pg, Options{Grouping: true, SharedTransition: true})
	if err != nil {
		t.Fatal(err)
	}
	for pid, d := range base.PathDelays {
		if shared.PathDelays[pid] > d+1e-9 {
			t.Errorf("path %v: refinement worsened the bound: %g > %g",
				pid, shared.PathDelays[pid], d)
		}
	}
	v1 := afdx.PathID{VL: "v1", PathIdx: 0}
	if !almostEq(shared.PathDelays[v1], base.PathDelays[v1]) {
		t.Errorf("uniform frames: refined %g should equal base %g",
			shared.PathDelays[v1], base.PathDelays[v1])
	}

	// With a small v1 the transition e1->S1 -> S1->S3 can only be
	// bridged by v1 itself (8 us instead of max-at-node 40 us): the
	// refined bound drops by 32 us on the first transition only
	// (v2 still bridges S1->S3 -> S3->e6).
	n := afdx.Figure2Config()
	n.VLs[0].SMaxBytes = 100
	n.VLs[0].SMinBytes = 100
	pg2, err := afdx.BuildPortGraph(n, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	base2, err := Analyze(pg2, Options{Grouping: true})
	if err != nil {
		t.Fatal(err)
	}
	shared2, err := Analyze(pg2, Options{Grouping: true, SharedTransition: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := base2.PathDelays[v1] - 32; !almostEq(shared2.PathDelays[v1], want) {
		t.Errorf("refined small-frame bound = %g, want %g",
			shared2.PathDelays[v1], want)
	}
}

func TestSharedTransitionShrinksFig7Pessimism(t *testing.T) {
	// The refinement targets exactly the regime where the paper reports
	// the trajectory approach losing: small own frames meeting large
	// ones. The refined bound must stay at or above NC-feasible floors
	// and strictly below the published-method bound.
	n := afdx.Figure2Config()
	n.VLs[0].SMaxBytes = 100
	n.VLs[0].SMinBytes = 100
	pg, err := afdx.BuildPortGraph(n, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	published, err := Analyze(pg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Analyze(pg, Options{Grouping: true, SharedTransition: true})
	if err != nil {
		t.Fatal(err)
	}
	nc, err := netcalc.Analyze(pg, netcalc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v1 := afdx.PathID{VL: "v1", PathIdx: 0}
	if refined.PathDelays[v1] >= published.PathDelays[v1] {
		t.Errorf("refined %g should be strictly below published %g",
			refined.PathDelays[v1], published.PathDelays[v1])
	}
	// The published bound loses to NC here; the refined one recovers
	// part of the gap.
	gapPublished := published.PathDelays[v1] - nc.PathDelays[v1]
	gapRefined := refined.PathDelays[v1] - nc.PathDelays[v1]
	if gapPublished <= 0 {
		t.Fatalf("precondition: published trajectory should lose to NC, gap %g", gapPublished)
	}
	if gapRefined >= gapPublished {
		t.Errorf("refinement should shrink the losing gap: %g -> %g", gapPublished, gapRefined)
	}
}

func TestMixedPrioritiesRejected(t *testing.T) {
	n := afdx.Figure2Config()
	n.VLs[2].Priority = 1
	pg, err := afdx.BuildPortGraph(n, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(pg, DefaultOptions()); err == nil {
		t.Fatal("the trajectory engine must reject mixed static priorities")
	}
}

func TestUniformNonZeroPriorityAccepted(t *testing.T) {
	n := afdx.Figure2Config()
	for _, v := range n.VLs {
		v.Priority = 1
	}
	pg, err := afdx.BuildPortGraph(n, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(pg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.PathDelays[afdx.PathID{VL: "v1", PathIdx: 0}], 248) {
		t.Error("uniform priority must not change the FIFO trajectory bound")
	}
}

func TestExplainDecomposition(t *testing.T) {
	pg := figure2Graph(t)
	ex, err := Explain(pg, afdx.PathID{VL: "v1", PathIdx: 0}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(ex.DelayUs, 248) {
		t.Errorf("explained bound = %g, want 248", ex.DelayUs)
	}
	// Groups {v2} via e2, {v3, v4} via S2, {v1} at its source port.
	if len(ex.Interference) != 3 {
		t.Errorf("interference groups = %d, want 3", len(ex.Interference))
	}
	if len(ex.Transitions) != 2 {
		t.Errorf("transition terms = %d, want 2", len(ex.Transitions))
	}
	if !almostEq(ex.LatencyUs, 48) {
		t.Errorf("latency sum = %g, want 48", ex.LatencyUs)
	}
	// The serialized {v3,v4} group is the one capped: its 80 us of
	// first frames count as 40 us.
	capped := 0
	for _, g := range ex.Interference {
		if !g.Capped {
			continue
		}
		capped++
		if len(g.Members) != 2 || g.Members[0].VL != "v3" || g.Members[1].VL != "v4" ||
			!almostEq(g.FirstUs, 80) || !almostEq(g.CapUs, 40) || !almostEq(g.Us, 40) {
			t.Errorf("unexpected capped group %+v", g)
		}
	}
	if capped != 1 {
		t.Errorf("capped groups = %d, want 1 ({v3, v4})", capped)
	}
	// The explanation's own terms sum to the bound.
	interference := 0.0
	for _, g := range ex.Interference {
		interference += g.Us
	}
	if interference != ex.InterferenceUs || !almostEq(interference, 120) {
		t.Errorf("group terms sum to %g, InterferenceUs %g, want 120", interference, ex.InterferenceUs)
	}
	if got := ex.InterferenceUs + ex.TransitionUs + ex.LatencyUs - ex.CriticalT; got != ex.DelayUs {
		t.Errorf("decomposition sums to %g, want %g", got, ex.DelayUs)
	}
	var buf bytes.Buffer
	if err := ex.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"248.00", "capped to 40.00", "transition terms"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("explanation text missing %q:\n%s", frag, buf.String())
		}
	}
}

func TestExplainUnknownPath(t *testing.T) {
	pg := figure2Graph(t)
	if _, err := Explain(pg, afdx.PathID{VL: "zz", PathIdx: 0}, DefaultOptions()); err == nil {
		t.Fatal("expected error for unknown path")
	}
}

func TestExplainSharedTransitionVariant(t *testing.T) {
	pg := figure2Graph(t)
	ex, err := Explain(pg, afdx.PathID{VL: "v1", PathIdx: 0},
		Options{Grouping: true, SharedTransition: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Transitions) != 2 {
		t.Errorf("transition terms = %d, want 2", len(ex.Transitions))
	}
}

func TestBusyPeriodSpansMultipleBAGs(t *testing.T) {
	// Five VLs share one source end system with BAGs shorter than the
	// port busy period: the candidate-offset maximisation must evaluate
	// step points beyond t=0 and count second frames.
	n := &afdx.Network{
		Name:       "hotport",
		Params:     afdx.DefaultParams(),
		EndSystems: []string{"src", "dst"},
		Switches:   []string{"SW"},
	}
	for i := 0; i < 5; i++ {
		bag := 0.5 // ms
		if i < 2 {
			bag = 0.25
		}
		n.VLs = append(n.VLs, &afdx.VirtualLink{
			ID: fmt.Sprintf("h%d", i), Source: "src", BAGMs: bag,
			SMaxBytes: 800, SMinBytes: 800,
			Paths: [][]string{{"src", "SW", "dst"}},
		})
	}
	pg, err := afdx.BuildPortGraph(n, afdx.Relaxed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(pg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	det := res.Details[afdx.PathID{VL: "h0", PathIdx: 0}]
	// Busy period: 2 VLs at 250 us + 3 at 500 us, C = 64 us:
	// B = 2*2*64 + 3*64 = 448 us (two rounds of the 250 us flows).
	if !almostEq(det.BusyPeriodUs, 448) {
		t.Errorf("busy period = %g, want 448", det.BusyPeriodUs)
	}
	if det.NumCandidates < 2 {
		t.Errorf("candidates = %d, want >= 2 (step at t=250 us)", det.NumCandidates)
	}
	// The maximum is NOT at t=0: the second frames of the 250 us flows
	// enter the busy period at t=250, where the serialized source group
	// contributes min(320, 64+250) + 2*64 = 442, plus the 64 us
	// transition and 32 us latency, minus t: 288 us (vs 160 us at t=0).
	if det.CriticalT != 250 {
		t.Errorf("critical offset = %g, want 250", det.CriticalT)
	}
	if got := res.PathDelays[afdx.PathID{VL: "h0", PathIdx: 0}]; !almostEq(got, 288) {
		t.Errorf("bound = %g, want 288", got)
	}
}

func TestBusyPeriodAtFullUtilizationFailsFast(t *testing.T) {
	// A source port loaded to exactly 1.0 utilization passes the shared
	// stability pre-flight (which rejects only utilization > 1) but has
	// no finite busy period. The remaining-capacity check must return
	// the infeasibility error immediately instead of burning a huge
	// iteration budget discovering the divergence.
	n := &afdx.Network{
		Name:       "full-util",
		Params:     afdx.DefaultParams(),
		EndSystems: []string{"src", "dst"},
		Switches:   []string{"SW"},
	}
	// 10 VLs * 1250 B / 1 ms = 100 bits/us = exactly the link rate.
	for i := 0; i < 10; i++ {
		n.VLs = append(n.VLs, &afdx.VirtualLink{
			ID: fmt.Sprintf("u%02d", i), Source: "src",
			BAGMs: 1, SMaxBytes: 1250, SMinBytes: 64,
			Paths: [][]string{{"src", "SW", "dst"}},
		})
	}
	pg, err := afdx.BuildPortGraph(n, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Analyze(pg, DefaultOptions())
	if err == nil {
		t.Fatal("expected busy-period infeasibility at utilization 1.0")
	}
	if !strings.Contains(err.Error(), "does not converge") {
		t.Errorf("error should name the documented non-convergence, got: %v", err)
	}
}

func TestBusyPeriodHighUtilizationConverges(t *testing.T) {
	// 97.4% source-port utilization with a busy period spanning many
	// 1 ms BAGs: the fixpoint iteration must still converge (bounded by
	// the remaining-capacity frame count, not a flat iteration cap).
	n := &afdx.Network{
		Name:       "high-util",
		Params:     afdx.DefaultParams(),
		EndSystems: []string{"src", "dst"},
		Switches:   []string{"SW"},
	}
	for i := 0; i < 8; i++ {
		n.VLs = append(n.VLs, &afdx.VirtualLink{
			ID: fmt.Sprintf("f%02d", i), Source: "src",
			BAGMs: 1, SMaxBytes: 1518, SMinBytes: 64,
			Paths: [][]string{{"src", "SW", "dst"}},
		})
	}
	for i := 0; i < 3; i++ {
		n.VLs = append(n.VLs, &afdx.VirtualLink{
			ID: fmt.Sprintf("s%02d", i), Source: "src",
			BAGMs: 128, SMaxBytes: 1518, SMinBytes: 64,
			Paths: [][]string{{"src", "SW", "dst"}},
		})
	}
	pg, err := afdx.BuildPortGraph(n, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(pg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	det := res.Details[afdx.PathID{VL: "f00", PathIdx: 0}]
	if det.BusyPeriodUs <= 1000 {
		t.Errorf("busy period = %g us, expected to span several 1 ms BAGs", det.BusyPeriodUs)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	// The determinism contract: any worker count yields bit-identical
	// bounds. Exercised here in both prefix modes (PrefixTrajectory
	// stresses the concurrent prefix cache).
	pg := figure2Graph(t)
	for _, mode := range []PrefixMode{PrefixNC, PrefixTrajectory} {
		opts := DefaultOptions()
		opts.PrefixMode = mode
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
		if len(seq.PathDelays) != len(par.PathDelays) {
			t.Fatalf("mode %v: path count %d vs %d", mode, len(seq.PathDelays), len(par.PathDelays))
		}
		for pid, d := range seq.PathDelays {
			if pd, ok := par.PathDelays[pid]; !ok || pd != d {
				t.Errorf("mode %v: path %v sequential %v parallel %v (must be bit-identical)", mode, pid, d, pd)
			}
		}
		if len(seq.Details) != len(par.Details) {
			t.Fatalf("mode %v: detail count differs", mode)
		}
		for pid, det := range seq.Details {
			if par.Details[pid] != det {
				t.Errorf("mode %v: path %v details differ: %+v vs %+v", mode, pid, det, par.Details[pid])
			}
		}
	}
}
