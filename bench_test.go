package afdx_test

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates the corresponding result from scratch (analysis
// only; configuration generation is done once in setup where it is not
// itself the object of the experiment). Run with:
//
//	go test -bench=. -benchmem
//
// The printed rows/series themselves come from cmd/afdx-experiments;
// the benchmarks measure the cost of regenerating each of them and keep
// them wired into `go test -bench` as the prescribed entry point.

import (
	"testing"

	"afdx"
	"afdx/internal/experiments"
)

func figure2Graph(b *testing.B) *afdx.PortGraph {
	b.Helper()
	pg, err := afdx.BuildPortGraph(afdx.Figure2Config(), afdx.Strict)
	if err != nil {
		b.Fatal(err)
	}
	return pg
}

func industrialGraph(b *testing.B) *afdx.PortGraph {
	b.Helper()
	net, err := afdx.Generate(afdx.DefaultGeneratorSpec(1))
	if err != nil {
		b.Fatal(err)
	}
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		b.Fatal(err)
	}
	return pg
}

// BenchmarkFig3TrajectoryNoGrouping regenerates Figure 3: the trajectory
// bound of v1 on the sample configuration without the grouping
// technique (the impossible simultaneous-arrival scenario).
func BenchmarkFig3TrajectoryNoGrouping(b *testing.B) {
	pg := figure2Graph(b)
	opts := afdx.TrajectoryOptions{Grouping: false}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := afdx.AnalyzeTrajectory(pg, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.PathDelays[experiments.V1Path] != 288 {
			b.Fatalf("figure 3 bound drifted: %g", res.PathDelays[experiments.V1Path])
		}
	}
}

// BenchmarkFig4TrajectoryGrouping regenerates Figure 4: the grouped
// (serialized) trajectory bound of v1.
func BenchmarkFig4TrajectoryGrouping(b *testing.B) {
	pg := figure2Graph(b)
	opts := afdx.DefaultTrajectoryOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := afdx.AnalyzeTrajectory(pg, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.PathDelays[experiments.V1Path] != 248 {
			b.Fatalf("figure 4 bound drifted: %g", res.PathDelays[experiments.V1Path])
		}
	}
}

// BenchmarkTableIIndustrial regenerates Table I: the full two-method
// comparison over every path of the industrial configuration.
func BenchmarkTableIIndustrial(b *testing.B) {
	pg := industrialGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := afdx.Compare(pg)
		if err != nil {
			b.Fatal(err)
		}
		s := cmp.Summary()
		if s.NumPaths < 4800 || s.MeanBenefitPct <= 0 {
			b.Fatalf("table I shape drifted: %+v", s)
		}
	}
}

// BenchmarkFig5BenefitByBAG regenerates Figure 5: the per-BAG mean
// benefit aggregation (on top of a Table I comparison).
func BenchmarkFig5BenefitByBAG(b *testing.B) {
	pg := industrialGraph(b)
	cmp, err := afdx.Compare(pg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := cmp.ByBAG()
		if len(rows) < 6 {
			b.Fatalf("figure 5 rows drifted: %d", len(rows))
		}
	}
}

// BenchmarkFig6WCNCWinsBySmax regenerates Figure 6: the per-s_max share
// of paths where Network Calculus wins.
func BenchmarkFig6WCNCWinsBySmax(b *testing.B) {
	pg := industrialGraph(b)
	cmp, err := afdx.Compare(pg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := cmp.BySmax()
		if len(rows) < 10 {
			b.Fatalf("figure 6 rows drifted: %d", len(rows))
		}
	}
}

// BenchmarkFig7SmaxSweep regenerates Figure 7: both bounds for v1 with
// s_max swept over 100..1500 B (15 full analyses of the sample network).
func BenchmarkFig7SmaxSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.SweepSmax()
		if err != nil {
			b.Fatal(err)
		}
		if cross := experiments.CrossoverSmax(pts); cross < 100 || cross > 600 {
			b.Fatalf("figure 7 crossover drifted: %d B", cross)
		}
	}
}

// BenchmarkFig8BAGSweep regenerates Figure 8: both bounds for v1 with
// BAG swept over the harmonic values 1..128 ms.
func BenchmarkFig8BAGSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.SweepBAG()
		if err != nil {
			b.Fatal(err)
		}
		if pts[0].TrajUs != pts[len(pts)-1].TrajUs {
			b.Fatal("figure 8 flatness drifted")
		}
	}
}

// BenchmarkFig9Surface regenerates Figure 9: the 8x15 (BAG, s_max) plane
// of bound differences.
func BenchmarkFig9Surface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Surface()
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 120 {
			b.Fatalf("figure 9 cells drifted: %d", len(cells))
		}
	}
}

// BenchmarkSimCheck regenerates the soundness experiment: randomized
// simulation against the analytic bounds on the sample configuration.
func BenchmarkSimCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.SimCheck(5)
		if err != nil {
			b.Fatal(err)
		}
		if r.Violations != 0 {
			b.Fatal("bound violation in benchmark run")
		}
	}
}

// BenchmarkSimulatorFigure2 times the discrete-event simulator itself.
func BenchmarkSimulatorFigure2(b *testing.B) {
	pg := figure2Graph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := afdx.DefaultSimConfig(int64(i))
		cfg.DurationUs = 128_000
		res, err := afdx.Simulate(pg, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.FramesEmitted == 0 {
			b.Fatal("no frames emitted")
		}
	}
}

// BenchmarkAblationMatrix regenerates the design-knob ablation table
// (every NC and trajectory variant on the sample configuration).
func BenchmarkAblationMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablations()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("ablation rows drifted: %d", len(rows))
		}
	}
}

// BenchmarkPessimismSearch regenerates the achievable-worst-case table
// (grid + refinement offset search against both bounds).
func BenchmarkPessimismSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Pessimism()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.NCRatio < 1-1e-9 {
				b.Fatalf("pessimism experiment found an NC violation: %+v", r)
			}
		}
	}
}

// BenchmarkScalingStudy regenerates the scaling experiment's smallest
// point (the full study is dominated by BenchmarkTableIIndustrial).
func BenchmarkScalingStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Scaling(experiments.Config{Seed: 1}, []int{100})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Summary.NumPaths == 0 {
			b.Fatal("scaling study produced no paths")
		}
	}
}
