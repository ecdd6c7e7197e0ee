package experiments

import (
	"context"
	"fmt"
	"io"

	"afdx/internal/afdx"
	"afdx/internal/core"
	"afdx/internal/report"
	"afdx/internal/sim"
	"afdx/internal/stats"
	"afdx/internal/trajectory"
)

// SimCheckResult summarises one soundness run: the largest simulated
// delay per path against the analytic bounds.
type SimCheckResult struct {
	NumPaths   int
	Violations int // simulated delay above NC or ungrouped trajectory
	// TightnessNC collects (simulated max / NC bound) per path, a
	// measure of the bound's pessimism (1.0 = tight).
	TightnessNC stats.Summary
	// TightnessTraj is the same against the grouped trajectory bound.
	TightnessTraj stats.Summary
}

// SimCheck simulates the Figure 2 configuration under many random offset
// assignments and checks that no observed delay exceeds the sound
// analytic bounds (Network Calculus and ungrouped Trajectory). The
// certified comparison's WCNC run supplies every trajectory run's
// prefix bounds, so WCNC runs once.
func SimCheck(seeds int) (*SimCheckResult, error) {
	pg, err := afdx.BuildPortGraph(afdx.Figure2Config(), afdx.Strict)
	if err != nil {
		return nil, err
	}
	cmp, err := core.Compare(pg)
	if err != nil {
		return nil, err
	}
	nc, trG := cmp.NC, cmp.Trajectory
	trU, err := trajectory.AnalyzeWithNCCtx(context.Background(), pg, trajectory.Options{Grouping: false}, nc)
	if err != nil {
		return nil, err
	}
	maxSim := map[afdx.PathID]float64{}
	for seed := 0; seed < seeds; seed++ {
		cfg := sim.DefaultConfig(int64(seed))
		cfg.DurationUs = 64_000
		res, err := sim.Run(pg, cfg)
		if err != nil {
			return nil, err
		}
		for pid, st := range res.Paths {
			if st.MaxDelayUs > maxSim[pid] {
				maxSim[pid] = st.MaxDelayUs
			}
		}
	}
	out := &SimCheckResult{}
	// Iterate in canonical path order: the tightness slices feed the
	// stats summary, whose mean accumulation must not inherit the
	// randomized map iteration order (DET003).
	pids := make([]afdx.PathID, 0, len(maxSim))
	for pid := range maxSim {
		pids = append(pids, pid)
	}
	afdx.SortPathIDs(pids)
	var tNC, tTraj []float64
	for _, pid := range pids {
		d := maxSim[pid]
		out.NumPaths++
		if d > nc.PathDelays[pid]+1e-6 || d > trU.PathDelays[pid]+1e-6 {
			out.Violations++
		}
		tNC = append(tNC, d/nc.PathDelays[pid])
		tTraj = append(tTraj, d/trG.PathDelays[pid])
	}
	out.TightnessNC = stats.Summarize(tNC)
	out.TightnessTraj = stats.Summarize(tTraj)
	return out, nil
}

func runSimCheck(w io.Writer, _ Config) error {
	r, err := SimCheck(50)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Simulated the Figure 2 configuration under 50 random offset seeds.\n\n")
	if err := report.Table(w,
		[]string{"check", "value"},
		[][]string{
			{"paths", report.Int(r.NumPaths)},
			{"bound violations (sound analyses)", report.Int(r.Violations)},
			{"sim/NC-bound ratio (mean)", fmt.Sprintf("%.3f", r.TightnessNC.Mean)},
			{"sim/NC-bound ratio (max)", fmt.Sprintf("%.3f", r.TightnessNC.Max)},
			{"sim/grouped-trajectory ratio (mean)", fmt.Sprintf("%.3f", r.TightnessTraj.Mean)},
			{"sim/grouped-trajectory ratio (max)", fmt.Sprintf("%.3f", r.TightnessTraj.Max)},
		}); err != nil {
		return err
	}
	fmt.Fprintln(w, "Ratios below 1.0 quantify the pessimism of the worst-case analyses")
	fmt.Fprintln(w, "relative to delays actually reached under randomized offsets.")
	return nil
}
