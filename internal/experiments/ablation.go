package experiments

import (
	"fmt"
	"io"
	"sort"

	"afdx/internal/afdx"
	"afdx/internal/core"
	"afdx/internal/exact"
	"afdx/internal/netcalc"
	"afdx/internal/report"
	"afdx/internal/trajectory"
)

// AblationRow is one analysis variant evaluated on the Figure 2
// configuration (bound for v1, plus the small-frame variant that
// stresses the trajectory transition term).
type AblationRow struct {
	Name       string
	V1At500BUs float64
	V1At100BUs float64
}

// Ablations evaluates the design knobs DESIGN.md calls out, on the
// sample configuration: grouping, staircase envelopes and the
// shared-transition refinement.
func Ablations() ([]AblationRow, error) {
	type variant struct {
		name string
		run  func(pg *afdx.PortGraph) (float64, error)
	}
	v1 := V1Path
	trajRun := func(opts trajectory.Options) func(pg *afdx.PortGraph) (float64, error) {
		return func(pg *afdx.PortGraph) (float64, error) {
			r, err := trajectory.Analyze(pg, opts)
			if err != nil {
				return 0, err
			}
			return r.PathDelays[v1], nil
		}
	}
	ncRun := func(opts netcalc.Options) func(pg *afdx.PortGraph) (float64, error) {
		return func(pg *afdx.PortGraph) (float64, error) {
			r, err := netcalc.Analyze(pg, opts)
			if err != nil {
				return 0, err
			}
			return r.PathDelays[v1], nil
		}
	}
	variants := []variant{
		{"NC, no grouping", ncRun(netcalc.Options{})},
		{"NC, grouping (paper WCNC)", ncRun(netcalc.Options{Grouping: true})},
		{"NC, grouping + staircase envelopes", ncRun(netcalc.Options{Grouping: true, StairSteps: 8})},
		{"Trajectory, no grouping (paper Fig 3)", trajRun(trajectory.Options{})},
		{"Trajectory, grouping (paper Fig 4)", trajRun(trajectory.Options{Grouping: true})},
		{"Trajectory, grouping, shared-transition refinement", trajRun(trajectory.Options{Grouping: true, SharedTransition: true})},
	}

	build := func(smax int) (*afdx.PortGraph, error) {
		n := afdx.Figure2Config()
		n.VLs[0].SMaxBytes = smax
		n.VLs[0].SMinBytes = smax
		return afdx.BuildPortGraph(n, afdx.Relaxed)
	}
	pg500, err := build(500)
	if err != nil {
		return nil, err
	}
	pg100, err := build(100)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, 0, len(variants))
	for _, v := range variants {
		at500, err := v.run(pg500)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %q at 500B: %w", v.name, err)
		}
		at100, err := v.run(pg100)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %q at 100B: %w", v.name, err)
		}
		rows = append(rows, AblationRow{Name: v.name, V1At500BUs: at500, V1At100BUs: at100})
	}
	return rows, nil
}

func runAblation(w io.Writer, _ Config) error {
	rows, err := Ablations()
	if err != nil {
		return err
	}
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{r.Name, report.Us(r.V1At500BUs), report.Us(r.V1At100BUs)})
	}
	fmt.Fprintln(w, "Bound for v1 on the Figure 2 configuration under each design knob")
	fmt.Fprintln(w, "(500B: the paper's nominal case; 100B: the small-frame regime where")
	fmt.Fprintln(w, "the published trajectory approach loses to Network Calculus):")
	fmt.Fprintln(w)
	return report.Table(w, []string{"variant", "v1 @ 500B (us)", "v1 @ 100B (us)"}, out)
}

// PessimismRow compares, for one path, the worst achievable delay found
// by offset search with the analytic bounds.
type PessimismRow struct {
	Path         afdx.PathID
	AchievableUs float64
	NCUs         float64
	TrajUs       float64
	// Pessimism columns: bound / achievable (1.0 = tight).
	NCRatio, TrajRatio float64
}

// Pessimism runs the exact offset search on the Figure 2 configuration
// and relates the achievable worst cases to both analytic bounds of the
// certified comparison — the ECRTS 2006 companion methodology.
func Pessimism() ([]PessimismRow, error) {
	pg, err := afdx.BuildPortGraph(afdx.Figure2Config(), afdx.Strict)
	if err != nil {
		return nil, err
	}
	cmp, err := core.Compare(pg)
	if err != nil {
		return nil, err
	}
	opts := exact.DefaultOptions()
	opts.GridUs = 500
	opts.Refine = 12
	found, err := exact.Search(pg, opts)
	if err != nil {
		return nil, err
	}
	var rows []PessimismRow
	for _, pid := range pg.Net.AllPaths() {
		a, pc := found.Delays[pid], cmp.PerPath[pid]
		rows = append(rows, PessimismRow{
			Path:         pid,
			AchievableUs: a,
			NCUs:         pc.NCUs,
			TrajUs:       pc.TrajectoryUs,
			NCRatio:      pc.NCUs / a,
			TrajRatio:    pc.TrajectoryUs / a,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Path.String() < rows[j].Path.String() })
	return rows, nil
}

func runPessimism(w io.Writer, _ Config) error {
	rows, err := Pessimism()
	if err != nil {
		return err
	}
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Path.String(), report.Us(r.AchievableUs), report.Us(r.NCUs), report.Us(r.TrajUs),
			fmt.Sprintf("%.3f", r.NCRatio), fmt.Sprintf("%.3f", r.TrajRatio),
		})
	}
	fmt.Fprintln(w, "Worst achievable delay (offset search) vs the analytic bounds on the")
	fmt.Fprintln(w, "Figure 2 configuration. Ratios quantify each method's pessimism; a")
	fmt.Fprintln(w, "trajectory ratio below 1.0 exhibits the published method's optimism:")
	fmt.Fprintln(w)
	return report.Table(w,
		[]string{"path", "achievable (us)", "WCNC (us)", "Trajectory (us)", "WCNC ratio", "Traj ratio"},
		out)
}
