// Package core implements the paper's primary contribution: the
// side-by-side comparison of the Network Calculus and Trajectory
// end-to-end delay bounds over every Virtual Link path of an AFDX
// configuration, and the combined analysis that keeps, per path, the
// tighter of the two bounds (never worse than either method alone).
// Certify is the one entry point for the certified bound.
//
// The aggregate views mirror the paper's evaluation: the Table I
// summary statistics, the per-BAG mean benefit of Figure 5, and the
// per-s_max "where does Network Calculus win" ratio of Figure 6.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"afdx/internal/afdx"
	"afdx/internal/netcalc"
	"afdx/internal/trajectory"
)

// PathComparison carries the three bounds of one VL path and the derived
// benefit figures, in the units used by the paper (microseconds and
// percent of the Network Calculus bound).
type PathComparison struct {
	NCUs         float64
	TrajectoryUs float64
	BestUs       float64
	// BenefitPct is the relative improvement of the Trajectory bound
	// over the Network Calculus bound: (NC - Trajectory) / NC * 100.
	// Negative when the Trajectory bound is more pessimistic.
	BenefitPct float64
	// BestBenefitPct is the improvement of the combined bound over NC:
	// always >= 0 by construction.
	BestBenefitPct float64
	// MinUs is the physical floor of the path's delay (idle network).
	MinUs float64
	// JitterUs is the certification jitter figure: the combined bound
	// minus the physical floor.
	JitterUs float64
}

// Comparison is the full per-path comparison of one configuration,
// with the two engine results it was assembled from: every explanation
// and table of a comparison reads the run that computed its bounds.
type Comparison struct {
	Net        *afdx.Network
	PerPath    map[afdx.PathID]PathComparison
	NC         *netcalc.Result
	Trajectory *trajectory.Result
}

// Certify runs the certified analysis: WCNC and the grouped trajectory
// under their paper-default options at the given worker count (<= 0
// selects GOMAXPROCS; every count is bit-identical), with one WCNC run
// that also supplies the trajectory engine's S_max prefix bounds. Its
// BestUs is the certified bound: the one afdx-bounds prints, afdx-serve
// serves and the conformance oracle holds witnesses against. This is
// the only place the certified option pair is written down.
func Certify(ctx context.Context, pg *afdx.PortGraph, workers int) (*Comparison, error) {
	ncOpts, trOpts := netcalc.DefaultOptions(), trajectory.DefaultOptions()
	ncOpts.Parallel, trOpts.Parallel = workers, workers
	return CompareWithCtx(ctx, pg, ncOpts, trOpts)
}

// Compare is Certify on all CPUs, without observability.
func Compare(pg *afdx.PortGraph) (*Comparison, error) {
	return Certify(context.Background(), pg, 0)
}

// CompareWith runs both analyses with explicit options and assembles the
// per-path comparison.
func CompareWith(pg *afdx.PortGraph, ncOpts netcalc.Options, trOpts trajectory.Options) (*Comparison, error) {
	return CompareWithCtx(context.Background(), pg, ncOpts, trOpts)
}

// CompareWithCtx is CompareWith with observability threaded through
// the context: each engine opens its own span and registers its own
// counters when ctx carries a tracer or registry. The WCNC result also
// serves as the trajectory engine's S_max prefix bounds when ncOpts are
// the defaults (see trajectory.AnalyzeWithNCCtx), so a default
// comparison runs WCNC once.
func CompareWithCtx(ctx context.Context, pg *afdx.PortGraph, ncOpts netcalc.Options, trOpts trajectory.Options) (*Comparison, error) {
	nc, err := netcalc.AnalyzeCtx(ctx, pg, ncOpts)
	if err != nil {
		return nil, fmt.Errorf("core: network calculus analysis: %w", err)
	}
	tr, err := trajectory.AnalyzeWithNCCtx(ctx, pg, trOpts, nc)
	if err != nil {
		return nil, fmt.Errorf("core: trajectory analysis: %w", err)
	}
	return Combine(pg, nc, tr)
}

// Combine assembles the per-path comparison from already-computed
// engine results (CompareWithCtx = two engine runs + Combine) and
// records both results on it.
func Combine(pg *afdx.PortGraph, nc *netcalc.Result, tr *trajectory.Result) (*Comparison, error) {
	paths := pg.Paths()
	c := &Comparison{Net: pg.Net, PerPath: make(map[afdx.PathID]PathComparison, len(paths)), NC: nc, Trajectory: tr}
	for _, pid := range paths {
		dn, ok1 := nc.PathDelays[pid]
		dt, ok2 := tr.PathDelays[pid]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("core: missing bound for path %v (nc=%v traj=%v)", pid, ok1, ok2)
		}
		floor, err := pg.MinPathDelayUs(pid)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		best := math.Min(dn, dt)
		c.PerPath[pid] = PathComparison{
			NCUs:           dn,
			TrajectoryUs:   dt,
			BestUs:         best,
			BenefitPct:     (dn - dt) / dn * 100,
			BestBenefitPct: (dn - best) / dn * 100,
			MinUs:          floor,
			JitterUs:       best - floor,
		}
	}
	return c, nil
}

// sortedPathIDs returns PerPath's keys in (VL, PathIdx) order. Every
// aggregate below iterates this slice rather than the map: the mean
// accumulations are floating-point sums, whose rounding — and hence the
// published Table I / Figure 5 / Figure 6 numbers — would otherwise
// depend on Go's randomized map iteration order (DET001).
func (c *Comparison) sortedPathIDs() []afdx.PathID {
	ids := make([]afdx.PathID, 0, len(c.PerPath))
	for pid := range c.PerPath {
		ids = append(ids, pid)
	}
	afdx.SortPathIDs(ids)
	return ids
}

// Summary reproduces the structure of the paper's Table I: mean, maximum
// and minimum benefit of the Trajectory approach over Network Calculus,
// and of the combined ("Best") approach over Network Calculus, plus the
// fraction of paths where the Trajectory bound is the tighter one.
type Summary struct {
	NumPaths          int
	MeanBenefitPct    float64
	MaxBenefitPct     float64
	MinBenefitPct     float64
	MeanBestPct       float64
	MaxBestPct        float64
	MinBestPct        float64
	TrajectoryWinFrac float64 // fraction of paths with Trajectory <= NC
}

// Summary aggregates the per-path comparison into the Table I statistics.
func (c *Comparison) Summary() Summary {
	s := Summary{
		MaxBenefitPct: math.Inf(-1),
		MinBenefitPct: math.Inf(1),
		MaxBestPct:    math.Inf(-1),
		MinBestPct:    math.Inf(1),
	}
	wins := 0
	for _, pid := range c.sortedPathIDs() {
		pc := c.PerPath[pid]
		s.NumPaths++
		s.MeanBenefitPct += pc.BenefitPct
		s.MeanBestPct += pc.BestBenefitPct
		s.MaxBenefitPct = math.Max(s.MaxBenefitPct, pc.BenefitPct)
		s.MinBenefitPct = math.Min(s.MinBenefitPct, pc.BenefitPct)
		s.MaxBestPct = math.Max(s.MaxBestPct, pc.BestBenefitPct)
		s.MinBestPct = math.Min(s.MinBestPct, pc.BestBenefitPct)
		if pc.TrajectoryUs <= pc.NCUs {
			wins++
		}
	}
	if s.NumPaths > 0 {
		s.MeanBenefitPct /= float64(s.NumPaths)
		s.MeanBestPct /= float64(s.NumPaths)
		s.TrajectoryWinFrac = float64(wins) / float64(s.NumPaths)
	}
	return s
}

// BAGBenefit is one point of the paper's Figure 5: the mean Trajectory
// benefit over the paths whose VL has the given BAG.
type BAGBenefit struct {
	BAGMs          float64
	NumPaths       int
	MeanBenefitPct float64
}

// ByBAG groups paths by their VL's BAG and averages the Trajectory
// benefit within each group, sorted by increasing BAG (Figure 5).
func (c *Comparison) ByBAG() []BAGBenefit {
	type acc struct {
		n   int
		sum float64
	}
	m := map[float64]*acc{}
	for _, pid := range c.sortedPathIDs() {
		pc := c.PerPath[pid]
		vl := c.Net.VL(pid.VL)
		a := m[vl.BAGMs]
		if a == nil {
			a = &acc{}
			m[vl.BAGMs] = a
		}
		a.n++
		a.sum += pc.BenefitPct
	}
	out := make([]BAGBenefit, 0, len(m))
	for bag, a := range m {
		out = append(out, BAGBenefit{BAGMs: bag, NumPaths: a.n, MeanBenefitPct: a.sum / float64(a.n)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].BAGMs < out[j].BAGMs })
	return out
}

// SmaxShare is one point of the paper's Figure 6: among the paths whose
// VL has the given s_max, the percentage for which the Network Calculus
// bound is strictly tighter than the Trajectory bound.
type SmaxShare struct {
	SMaxBytes   int
	NumPaths    int
	NCWinsPct   float64
	MeanBenefit float64
}

// BySmax groups paths by their VL's s_max, sorted by increasing s_max
// (Figure 6).
func (c *Comparison) BySmax() []SmaxShare {
	type acc struct {
		n, ncWins int
		sum       float64
	}
	m := map[int]*acc{}
	for _, pid := range c.sortedPathIDs() {
		pc := c.PerPath[pid]
		vl := c.Net.VL(pid.VL)
		a := m[vl.SMaxBytes]
		if a == nil {
			a = &acc{}
			m[vl.SMaxBytes] = a
		}
		a.n++
		a.sum += pc.BenefitPct
		if pc.TrajectoryUs > pc.NCUs {
			a.ncWins++
		}
	}
	out := make([]SmaxShare, 0, len(m))
	for s, a := range m {
		out = append(out, SmaxShare{
			SMaxBytes:   s,
			NumPaths:    a.n,
			NCWinsPct:   float64(a.ncWins) / float64(a.n) * 100,
			MeanBenefit: a.sum / float64(a.n),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SMaxBytes < out[j].SMaxBytes })
	return out
}
