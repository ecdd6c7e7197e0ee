package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"afdx/internal/report"
)

// Config parameterises one experiment run.
type Config struct {
	// Seed selects the synthetic industrial configuration (experiments
	// on the fixed Figure 2 sample ignore it).
	Seed int64
	// Parallel bounds the analysis engines' worker pools (<= 0 selects
	// GOMAXPROCS, 1 is strictly sequential). It affects wall time only:
	// the engines' determinism contract makes every worker count
	// produce bit-identical tables.
	Parallel int
	// Ctx, when non-nil, carries the observability registry and tracer
	// (see internal/obs) into the engine runs. Nil means background:
	// no metrics, no spans, same results.
	Ctx context.Context
}

// context returns the run's observability context, defaulting to
// Background.
func (cfg Config) context() context.Context {
	if cfg.Ctx != nil {
		return cfg.Ctx
	}
	return context.Background()
}

// Experiment is one regenerable table or figure of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, cfg Config) error
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig3", "Figure 3: trajectory worst case for v1 (no grouping)", runFig3},
		{"fig4", "Figure 4: enhanced trajectory worst case for v1 (grouping)", runFig4},
		{"table1", "Table I: end-to-end delay bound comparison on the industrial network", runTableI},
		{"fig5", "Figure 5: mean Trajectory benefit per BAG value", runFig5},
		{"fig6", "Figure 6: share of paths where WCNC beats Trajectory, per s_max", runFig6},
		{"fig7", "Figure 7: effect of s_max(v1) on the end-to-end bounds", runFig7},
		{"fig8", "Figure 8: effect of BAG(v1) on the end-to-end bounds", runFig8},
		{"fig9", "Figure 9: WCNC - Trajectory difference over (BAG, s_max)", runFig9},
		{"simcheck", "Soundness: analytic bounds vs simulated delays", runSimCheck},
		{"ablation", "Ablation: every design knob on the sample configuration", runAblation},
		{"pessimism", "Pessimism: achievable worst cases (offset search) vs bounds", runPessimism},
		{"priority", "Extension: two-level static-priority bounds vs FIFO", runPriority},
		{"robustness", "Robustness: Table I statistics across generator seeds", runRobustness},
		{"deadlines", "Certification: BAG-as-deadline verdicts per method", runDeadlines},
		{"scaling", "Scaling: analysis cost and outcome vs VL count", runScaling},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func runFig3(w io.Writer, _ Config) error {
	ung, grp, nc, err := ScenarioBounds()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Trajectory bound for v1 on the Figure 2 configuration, WITHOUT the\n")
	fmt.Fprintf(w, "grouping technique (the paper's Figure 3 scenario, in which v3 and v4\n")
	fmt.Fprintf(w, "arrive at S3 simultaneously although they share the S2->S3 link):\n\n")
	fmt.Fprintf(w, "  trajectory (no grouping): %s us\n", report.Us(ung))
	fmt.Fprintf(w, "  [for reference: grouped %s us, network calculus %s us]\n",
		report.Us(grp), report.Us(nc))
	return nil
}

func runFig4(w io.Writer, _ Config) error {
	ung, grp, nc, err := ScenarioBounds()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Enhanced trajectory bound for v1 (the paper's Figure 4 scenario: the\n")
	fmt.Fprintf(w, "frames of v3 and v4 arrive serialized on the shared S2->S3 link):\n\n")
	fmt.Fprintf(w, "  trajectory (grouping):    %s us\n", report.Us(grp))
	fmt.Fprintf(w, "  saving vs Figure 3:       %s us (one 500B frame = 40 us)\n", report.Us(ung-grp))
	fmt.Fprintf(w, "  [network calculus:        %s us]\n", report.Us(nc))
	return nil
}

func runTableI(w io.Writer, cfg Config) error {
	r, err := Industrial(cfg)
	if err != nil {
		return err
	}
	s := r.Comparison.Summary()
	p := PaperTableIReference()
	st := r.Net.ComputeStats()
	fmt.Fprintf(w, "Synthetic industrial configuration (seed %d): %d VLs, %d paths,\n",
		cfg.Seed, st.NumVLs, st.NumPaths)
	fmt.Fprintf(w, "%d end systems, %d switches (paper: ~1000 VLs, >6000 paths over two\nredundant sub-networks, >100 end systems, 2x8 switches).\n\n",
		st.NumEndSystems, st.NumSwitches)
	if err := report.Table(w,
		[]string{"Benefit", "Trajectory/WCNC", "Best/WCNC", "paper Traj/WCNC", "paper Best/WCNC"},
		[][]string{
			{"Mean", report.Pct(s.MeanBenefitPct), report.Pct(s.MeanBestPct),
				report.Pct(p.MeanBenefitPct), report.Pct(p.MeanBestPct)},
			{"Maximum", report.Pct(s.MaxBenefitPct), report.Pct(s.MaxBestPct),
				report.Pct(p.MaxBenefitPct), report.Pct(p.MaxBestPct)},
			{"Minimum", report.Pct(s.MinBenefitPct), report.Pct(s.MinBestPct),
				report.Pct(p.MinBenefitPct), report.Pct(p.MinBestPct)},
		}); err != nil {
		return err
	}
	fmt.Fprintf(w, "Trajectory tighter on %.1f%% of paths (paper: roughly %.0f%%).\n",
		s.TrajectoryWinFrac*100, p.TrajectoryWinFracApprox*100)
	return nil
}

func runFig5(w io.Writer, cfg Config) error {
	r, err := Industrial(cfg)
	if err != nil {
		return err
	}
	rows := [][]string{}
	for _, b := range r.Comparison.ByBAG() {
		rows = append(rows, []string{
			fmt.Sprintf("%g", b.BAGMs), report.Int(b.NumPaths), report.Pct(b.MeanBenefitPct),
		})
	}
	fmt.Fprintln(w, "Mean benefit of the Trajectory approach over Network Calculus, per BAG")
	fmt.Fprintln(w, "(paper Figure 5; the benefit globally increases as the BAG decreases):")
	fmt.Fprintln(w)
	return report.Table(w, []string{"BAG (ms)", "paths", "mean benefit"}, rows)
}

func runFig6(w io.Writer, cfg Config) error {
	r, err := Industrial(cfg)
	if err != nil {
		return err
	}
	rows := [][]string{}
	for _, s := range r.Comparison.BySmax() {
		rows = append(rows, []string{
			report.Int(s.SMaxBytes), report.Int(s.NumPaths),
			report.Pct(s.NCWinsPct), report.Pct(s.MeanBenefit),
		})
	}
	fmt.Fprintln(w, "Share of VL paths for which the WCNC bound is tighter than the")
	fmt.Fprintln(w, "Trajectory bound, per s_max (paper Figure 6; the share grows as s_max")
	fmt.Fprintln(w, "decreases and vanishes for large frames):")
	fmt.Fprintln(w)
	return report.Table(w, []string{"s_max (B)", "paths", "WCNC wins", "mean benefit"}, rows)
}

func runFig7(w io.Writer, _ Config) error {
	pts, err := SweepSmax()
	if err != nil {
		return err
	}
	rows := [][]string{}
	for _, p := range pts {
		rows = append(rows, []string{report.Int(p.SMaxBytes), report.Us(p.TrajUs), report.Us(p.NCUs)})
	}
	fmt.Fprintln(w, "End-to-end delay bounds of v1 vs s_max(v1) on the Figure 2 sample")
	fmt.Fprintln(w, "configuration (paper Figure 7; the curves cross near the other VLs'")
	fmt.Fprintf(w, "frame size; measured crossover: WCNC tighter up to s_max = %d B):\n\n",
		CrossoverSmax(pts))
	return report.Table(w, []string{"s_max (B)", "Trajectory (us)", "WCNC (us)"}, rows)
}

func runFig8(w io.Writer, _ Config) error {
	pts, err := SweepBAG()
	if err != nil {
		return err
	}
	rows := [][]string{}
	for _, p := range pts {
		rows = append(rows, []string{fmt.Sprintf("%g", p.BAGMs), report.Us(p.TrajUs), report.Us(p.NCUs)})
	}
	fmt.Fprintln(w, "End-to-end delay bounds of v1 vs BAG(v1) (paper Figure 8; the")
	fmt.Fprintln(w, "Trajectory bound is flat, the WCNC bound grows as the BAG shrinks):")
	fmt.Fprintln(w)
	return report.Table(w, []string{"BAG (ms)", "Trajectory (us)", "WCNC (us)"}, rows)
}

func runFig9(w io.Writer, _ Config) error {
	cells, err := Surface()
	if err != nil {
		return err
	}
	// Pivot into a BAG x s_max matrix of differences.
	bags := []float64{}
	smaxs := []int{}
	seenB := map[float64]bool{}
	seenS := map[int]bool{}
	val := map[[2]float64]float64{}
	for _, c := range cells {
		if !seenB[c.BAGMs] {
			seenB[c.BAGMs] = true
			bags = append(bags, c.BAGMs)
		}
		if !seenS[c.SMaxBytes] {
			seenS[c.SMaxBytes] = true
			smaxs = append(smaxs, c.SMaxBytes)
		}
		val[[2]float64{c.BAGMs, float64(c.SMaxBytes)}] = c.DifferenceUs
	}
	sort.Float64s(bags)
	sort.Ints(smaxs)
	headers := []string{"BAG\\s_max (B)"}
	for _, s := range smaxs {
		headers = append(headers, report.Int(s))
	}
	rows := [][]string{}
	for _, b := range bags {
		row := []string{fmt.Sprintf("%g ms", b)}
		for _, s := range smaxs {
			row = append(row, report.Us(val[[2]float64{b, float64(s)}]))
		}
		rows = append(rows, row)
	}
	fmt.Fprintln(w, "WCNC minus Trajectory bound for v1 over the (BAG, s_max) plane, in us")
	fmt.Fprintln(w, "(paper Figure 9; positive: Trajectory tighter, negative: WCNC tighter):")
	fmt.Fprintln(w)
	return report.Table(w, headers, rows)
}
