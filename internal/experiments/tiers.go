package experiments

import (
	"fmt"
	"io"
	"time"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/netcalc"
	"afdx/internal/report"
)

// TierRow measures one Network Calculus analysis tier on the seeded
// industrial configuration: wall time and tightness relative to the
// WCNC default.
type TierRow struct {
	Tier       string
	AnalyzeSec float64
	// MeanVsWCNCPct and MaxVsWCNCPct summarise (tier - WCNC) / WCNC
	// over every path, in percent (positive = looser than WCNC).
	MeanVsWCNCPct float64
	MaxVsWCNCPct  float64
	// TighterPaths / LooserPaths count paths where the tier's bound is
	// strictly below / above the WCNC bound.
	TighterPaths int
	LooserPaths  int
}

// Tiers runs both NC analysis tiers on the industrial configuration and
// reports each tier's cost and tightness vs WCNC: the WCNC reference row
// first, then FIFO. FIFO's exact theta-minimum is the WCNC level bound
// (DESIGN.md §14.1), so its row reads zero everywhere; the experiment
// shows that on the paper-scale network.
func Tiers(cfg Config) ([]TierRow, error) {
	net, err := configgen.Generate(configgen.DefaultSpec(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("experiments: tiers: %w", err)
	}
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		return nil, err
	}
	pids := pg.Net.AllPaths()
	afdx.SortPathIDs(pids)
	ncOpts, _ := cfg.engineOptions()
	var wcnc *netcalc.Result
	rows := make([]TierRow, 0, 2)
	for _, tier := range [...]netcalc.Analysis{netcalc.AnalysisWCNC, netcalc.AnalysisFIFO} {
		o := ncOpts
		o.Analysis = tier
		start := time.Now()
		res, err := netcalc.AnalyzeCtx(cfg.context(), pg, o)
		if err != nil {
			return nil, fmt.Errorf("experiments: tiers: %v: %w", tier, err)
		}
		row := TierRow{Tier: tier.String(), AnalyzeSec: time.Since(start).Seconds()}
		if wcnc == nil {
			wcnc = res
		}
		for _, pid := range pids {
			base := wcnc.PathDelays[pid]
			d := res.PathDelays[pid]
			rel := (d - base) / base * 100
			row.MeanVsWCNCPct += rel
			if rel > row.MaxVsWCNCPct {
				row.MaxVsWCNCPct = rel
			}
			if d < base {
				row.TighterPaths++
			} else if d > base {
				row.LooserPaths++
			}
		}
		if len(pids) > 0 {
			row.MeanVsWCNCPct /= float64(len(pids))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runTiers(w io.Writer, cfg Config) error {
	rows, err := Tiers(cfg)
	if err != nil {
		return err
	}
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Tier,
			fmt.Sprintf("%.2f s", r.AnalyzeSec),
			report.Pct(r.MeanVsWCNCPct),
			report.Pct(r.MaxVsWCNCPct),
			report.Int(r.TighterPaths),
			report.Int(r.LooserPaths),
		})
	}
	fmt.Fprintln(w, "The Network Calculus tightness/cost trade on the industrial")
	fmt.Fprintln(w, "configuration: each tier's analysis wall time and its bound relative")
	fmt.Fprintln(w, "to the WCNC default (positive = looser). FIFO's per-flow residual")
	fmt.Fprintln(w, "service, minimised exactly over theta, is the WCNC level bound, so")
	fmt.Fprintln(w, "the two tiers agree on every path:")
	fmt.Fprintln(w)
	return report.Table(w,
		[]string{"tier", "analyze time", "mean vs WCNC", "max vs WCNC", "tighter paths", "looser paths"}, out)
}
