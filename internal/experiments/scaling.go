package experiments

import (
	"fmt"
	"io"
	"time"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/core"
	"afdx/internal/report"
)

// ScalingRow measures one configuration size: generation statistics,
// analysis wall time per engine, and the comparison outcome.
type ScalingRow struct {
	NumVLs     int
	NumPaths   int
	CompareSec float64
	Summary    core.Summary
}

// Scaling runs the full comparison across configuration sizes, holding
// the topology constant (the paper's 8 switches): how the engines and
// the trajectory-benefit statistics behave as the network fills up.
func Scaling(cfg Config, sizes []int) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, n := range sizes {
		spec := configgen.DefaultSpec(cfg.Seed)
		spec.NumVLs = n
		net, err := configgen.Generate(spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling %d VLs: %w", n, err)
		}
		pg, err := afdx.BuildPortGraph(net, afdx.Strict)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		cmp, err := core.Certify(cfg.context(), pg, cfg.Parallel)
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling %d VLs: %w", n, err)
		}
		elapsed := time.Since(start).Seconds()
		st := net.ComputeStats()
		rows = append(rows, ScalingRow{
			NumVLs:     st.NumVLs,
			NumPaths:   st.NumPaths,
			CompareSec: elapsed,
			Summary:    cmp.Summary(),
		})
	}
	return rows, nil
}

func runScaling(w io.Writer, cfg Config) error {
	rows, err := Scaling(cfg, []int{100, 250, 500, 1000})
	if err != nil {
		return err
	}
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			report.Int(r.NumVLs), report.Int(r.NumPaths),
			fmt.Sprintf("%.2f s", r.CompareSec),
			report.Pct(r.Summary.MeanBenefitPct),
			fmt.Sprintf("%.1f%%", r.Summary.TrajectoryWinFrac*100),
		})
	}
	fmt.Fprintln(w, "Scaling the VL count on the fixed 8-switch topology: analysis cost")
	fmt.Fprintln(w, "and comparison outcome as the network fills up (the trajectory")
	fmt.Fprintln(w, "advantage grows with load, as in the paper's Figure 5 reading):")
	fmt.Fprintln(w)
	return report.Table(w,
		[]string{"VLs", "paths", "compare time", "mean benefit", "trajectory wins"}, out)
}
