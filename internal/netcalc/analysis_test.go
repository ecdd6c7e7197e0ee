package netcalc

import (
	"context"
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

// The ladder on the hand-checkable configurations: FIFO is never
// looser than WCNC, and WCNC never looser than the separated analysis
// (grouping and staircases off) that stays reachable through the
// Grouping knob.
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
		fifo, err := Analyze(pg, tierOpts(AnalysisFIFO))
		if err != nil {
			t.Fatalf("%s FIFO: %v", cfg.name, err)
		}
		const relTol = 1e-9
		leq := func(a, b float64) bool { return a <= b+relTol*(1+math.Abs(a)+math.Abs(b)) }
		for pid, dw := range wcnc.PathDelays {
			if ds := separated.PathDelays[pid]; !leq(dw, ds) {
				t.Errorf("%s %v: WCNC %g looser than the separated analysis %g", cfg.name, pid, dw, ds)
			}
			if df := fifo.PathDelays[pid]; !leq(df, dw) {
				t.Errorf("%s %v: FIFO %g looser than WCNC %g", cfg.name, pid, df, dw)
			}
		}
	}
}

// The FIFO tier is a refinement, not a relabeling: on a generated
// industrial-style network it strictly tightens some path bounds while
// never loosening any.
func TestFIFOStrictlyImprovesSomewhere(t *testing.T) {
	net, err := configgen.Generate(configgen.DefaultSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	wcnc, err := Analyze(pg, tierOpts(AnalysisWCNC))
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := Analyze(pg, tierOpts(AnalysisFIFO))
	if err != nil {
		t.Fatal(err)
	}
	improved := 0
	for pid, dw := range wcnc.PathDelays {
		df := fifo.PathDelays[pid]
		if df > dw {
			t.Errorf("path %v: FIFO %g looser than WCNC %g", pid, df, dw)
		}
		if df < dw {
			improved++
		}
	}
	if improved == 0 {
		t.Error("FIFO tier did not tighten a single path bound (refinement is dead)")
	}
}

// Per-flow delay terms: present for every (VL, port) incidence, equal
// to the priority-level bound outside the FIFO tier, never above it
// inside, and path bounds are exactly their sums.
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
				lvl := res.Ports[id].DelayByPriority[f.VL.Priority]
				switch a {
				case AnalysisFIFO:
					if fd > lvl+1e-12 {
						t.Errorf("FIFO: flow %s at %v: %g exceeds level bound %g", f.VL.ID, id, fd, lvl)
					}
				default:
					if fd != lvl {
						t.Errorf("%v: flow %s at %v: %g != level bound %g", a, f.VL.ID, id, fd, lvl)
					}
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

// Dedicated regression for the tier-aware cache signature: a warm cache
// alternating WCNC -> FIFO -> WCNC serves every round bit-identical to a
// cold run of the same tier (mirroring the two-generation-slot proof;
// a stale-tier hit would surface as a cross-tier value leak).
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
