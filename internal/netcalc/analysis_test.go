package netcalc

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/minplus"
)

func TestParseAnalysis(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Analysis
	}{
		{"WCNC", AnalysisWCNC}, {"wcnc", AnalysisWCNC}, {" Wcnc ", AnalysisWCNC},
		{"FIFO", AnalysisFIFO}, {"fifo", AnalysisFIFO},
	} {
		got, err := ParseAnalysis(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseAnalysis(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	// TFA is no tier (its separated bound is Grouping=false,
	// StairSteps=0), and neither is a comma list.
	for _, bad := range []string{"", "TFA", "tfa", "SFA", "PMOO", "wcnc,fifo"} {
		if _, err := ParseAnalysis(bad); err == nil {
			t.Errorf("ParseAnalysis(%q) unexpectedly succeeded", bad)
		}
	}
	if got := AnalysisFIFO.String(); got != "FIFO" {
		t.Errorf("AnalysisFIFO.String() = %q", got)
	}
}

// Regression for the RateLatency(1e12, delay) pure-delay stand-in: the
// Deconvolution ablation must equal classical burst inflation exactly
// (==, not within tolerance) for leaky buckets at every VL rate,
// including rates at and beyond the old magic 1e12 constant where the
// finite-rate approximation broke down.
func TestOutputBurstDeconvolutionExactAtEveryRate(t *testing.T) {
	id := afdx.PortID{From: "a", To: "b"}
	for _, rho := range []float64{0.01, 1, 125, 1e6, 1e11, 1e12, 5e12, 1e13} {
		// rho = SMaxBits/BAGUs; pick BAG to hit the target rate with a
		// 125-byte (1000-bit) frame.
		vl := &afdx.VirtualLink{ID: "v", SMaxBytes: 125, BAGMs: 1.0 / rho}
		if got := vl.RhoBitsPerUs(); !almostEq(got, rho) {
			t.Fatalf("rho setup: got %g, want about %g", got, rho)
		}
		for _, delay := range []float64{0, 0.5, 56, 1e4} {
			mk := func(deconv bool) *Result {
				return &Result{
					Opts:   Options{Deconvolution: deconv},
					Bursts: map[FlowPortKey]float64{{vl.ID, id}: 4000},
				}
			}
			classic, err := outputBurst(mk(false), vl, id, delay)
			if err != nil {
				t.Fatalf("rho=%g delay=%g classic: %v", rho, delay, err)
			}
			ablated, err := outputBurst(mk(true), vl, id, delay)
			if err != nil {
				t.Fatalf("rho=%g delay=%g deconvolution: %v", rho, delay, err)
			}
			if ablated != classic {
				t.Errorf("rho=%g delay=%g: deconvolution %v != classical %v (must be exact)",
					rho, delay, ablated, classic)
			}
		}
	}
}

// The end-to-end ablation equality is now exact as well: every path
// bound and every propagated burst agree bit for bit.
func TestDeconvolutionAblationBitIdenticalOnFigure2(t *testing.T) {
	pg := figure2Graph(t)
	classic, err := Analyze(pg, Options{Grouping: true})
	if err != nil {
		t.Fatal(err)
	}
	deconv, err := Analyze(pg, Options{Grouping: true, Deconvolution: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(classic.PathDelays, deconv.PathDelays) {
		t.Errorf("path delays differ between classical and deconvolution propagation")
	}
	if !reflect.DeepEqual(classic.Bursts, deconv.Bursts) {
		t.Errorf("bursts differ between classical and deconvolution propagation")
	}
}

// analyzePort outside an engine run (no precomputed service curves) is
// a hard invariant error, not silently uncounted fallback work.
func TestAnalyzePortRequiresPrecomputedBeta(t *testing.T) {
	pg := figure2Graph(t)
	rn := &ncRun{
		ctx:   context.Background(),
		pg:    pg,
		res:   &Result{Opts: DefaultOptions()},
		betas: map[betaKey]minplus.Curve{},
	}
	_, err := analyzePort(rn, pg.Order[0])
	if err == nil {
		t.Fatal("analyzePort with an empty service-curve cache unexpectedly succeeded")
	}
	if want := "not precomputed"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

func tierOpts(a Analysis) Options {
	o := DefaultOptions()
	o.Analysis = a
	return o
}

// The ladder on the hand-checkable configurations: WCNC is never
// looser than the separated analysis (grouping and staircases off)
// that stays reachable through the Grouping knob.
func TestTierOrderingOnSampleConfigs(t *testing.T) {
	for _, cfg := range []struct {
		name string
		net  *afdx.Network
	}{
		{"figure1", afdx.Figure1Config()},
		{"figure2", afdx.Figure2Config()},
	} {
		pg, err := afdx.BuildPortGraph(cfg.net, afdx.Strict)
		if err != nil {
			t.Fatal(err)
		}
		separated, err := Analyze(pg, Options{})
		if err != nil {
			t.Fatalf("%s separated: %v", cfg.name, err)
		}
		wcnc, err := Analyze(pg, tierOpts(AnalysisWCNC))
		if err != nil {
			t.Fatalf("%s WCNC: %v", cfg.name, err)
		}
		const relTol = 1e-9
		leq := func(a, b float64) bool { return a <= b+relTol*(1+math.Abs(a)+math.Abs(b)) }
		for pid, dw := range wcnc.PathDelays {
			if ds := separated.PathDelays[pid]; !leq(dw, ds) {
				t.Errorf("%s %v: WCNC %g looser than the separated analysis %g", cfg.name, pid, dw, ds)
			}
		}
	}
}

// The FIFO tier's exact theta-minimum is the WCNC level bound (DESIGN.md
// §14.1), so the two tiers agree bit for bit — every output map, on
// single- and two-level configurations, grouped, staircase-refined and
// separated. The old 5-point theta grid "beat" WCNC here only by float
// rounding (at most 1.8e-11 us).
func TestFIFOTierEqualsWCNC(t *testing.T) {
	industrial, err := configgen.Generate(configgen.DefaultSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		net  *afdx.Network
	}{
		{"figure1", afdx.Figure1Config()},
		{"figure2", afdx.Figure2Config()},
		{"figure2-priority", priorityConfig()},
		{"configgen-1", industrial},
	} {
		pg, err := afdx.BuildPortGraph(cfg.net, afdx.Strict)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range []Options{{Grouping: true}, {Grouping: true, StairSteps: 4}, {}} {
			label := fmt.Sprintf("%s %+v", cfg.name, base)
			var res [2]*Result
			var errs [2]error
			for i, a := range []Analysis{AnalysisWCNC, AnalysisFIFO} {
				o := base
				o.Analysis = a
				res[i], errs[i] = Analyze(pg, o)
			}
			// Staircase envelopes on a two-level port are not concave, so
			// the lower level's residual service is rejected; that
			// rejection too must be the same on both tiers.
			if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
				t.Errorf("%s: WCNC error %v, FIFO error %v", label, errs[0], errs[1])
			}
			if errs[0] != nil || errs[1] != nil {
				continue
			}
			w, f := res[0], res[1]
			for _, m := range []struct {
				name       string
				wcnc, fifo any
			}{
				{"PathDelays", w.PathDelays, f.PathDelays},
				{"FlowDelays", w.FlowDelays, f.FlowDelays},
				{"Bursts", w.Bursts, f.Bursts},
				{"PrefixDelays", w.PrefixDelays, f.PrefixDelays},
				{"Ports", w.Ports, f.Ports},
			} {
				if !reflect.DeepEqual(m.wcnc, m.fifo) {
					t.Errorf("%s: %s differ between the FIFO and WCNC tiers", label, m.name)
				}
			}
		}
	}
}

// Per-flow delay terms: present for every (VL, port) incidence, equal
// to the priority-level bound on both tiers, and path bounds are
// exactly their sums.
func TestFlowDelaysPerTier(t *testing.T) {
	pg := figure2Graph(t)
	for _, a := range []Analysis{AnalysisWCNC, AnalysisFIFO} {
		res, err := Analyze(pg, tierOpts(a))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range pg.Order {
			port := pg.Ports[id]
			for _, f := range port.Flows {
				fd, ok := res.FlowDelays[FlowPortKey{f.VL.ID, id}]
				if !ok {
					t.Fatalf("%v: missing FlowDelays entry for %s at %v", a, f.VL.ID, id)
				}
				if lvl := res.Ports[id].DelayByPriority[f.VL.Priority]; fd != lvl {
					t.Errorf("%v: flow %s at %v: %g != level bound %g", a, f.VL.ID, id, fd, lvl)
				}
			}
		}
		for _, pid := range pg.Net.AllPaths() {
			sum := 0.0
			for _, portID := range pg.PathPorts(pid) {
				sum += res.FlowDelays[FlowPortKey{pid.VL, portID}]
			}
			if sum != res.PathDelays[pid] {
				t.Errorf("%v: path %v: flow-delay sum %g != path bound %g", a, pid, sum, res.PathDelays[pid])
			}
		}
	}
}

// A warm cache alternating WCNC -> FIFO -> WCNC (the tier is
// result-neutral, so one cache serves both) answers every round
// bit-identical to a cold run of the same tier.
func TestCacheTierAlternationABA(t *testing.T) {
	pg := figure2Graph(t)
	c := NewCache(DefaultOptions())
	for step, a := range []Analysis{AnalysisWCNC, AnalysisFIFO, AnalysisWCNC, AnalysisFIFO, AnalysisWCNC} {
		opts := tierOpts(a)
		warm, err := AnalyzeWithCache(pg, opts, c)
		if err != nil {
			t.Fatalf("step %d (%v): %v", step, a, err)
		}
		cold, err := Analyze(pg, opts)
		if err != nil {
			t.Fatalf("step %d (%v) cold: %v", step, a, err)
		}
		if !reflect.DeepEqual(warm.PathDelays, cold.PathDelays) {
			t.Fatalf("step %d (%v): warm path delays diverge from cold (stale-tier bound served)", step, a)
		}
		if !reflect.DeepEqual(warm.FlowDelays, cold.FlowDelays) {
			t.Fatalf("step %d (%v): warm flow delays diverge from cold", step, a)
		}
		if !reflect.DeepEqual(warm.Bursts, cold.Bursts) {
			t.Fatalf("step %d (%v): warm bursts diverge from cold", step, a)
		}
	}
}

// The FIFO explanation still sums to the path bound (per-flow terms).
func TestExplainSumsPerTier(t *testing.T) {
	pg := figure2Graph(t)
	pid := afdx.PathID{VL: "v1", PathIdx: 0}
	for _, a := range []Analysis{AnalysisWCNC, AnalysisFIFO} {
		ex, err := Explain(pg, pid, tierOpts(a))
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range ex.Ports {
			sum += p.DelayUs
		}
		if !almostEq(sum, ex.DelayUs) {
			t.Errorf("%v: per-port terms sum to %g, path bound %g", a, sum, ex.DelayUs)
		}
	}
}
