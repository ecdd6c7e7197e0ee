package experiments

import (
	"fmt"
	"sync"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/core"
)

// IndustrialResult bundles the synthetic industrial configuration with
// its full method comparison (the substrate of Table I and Figures 5/6).
type IndustrialResult struct {
	Net        *afdx.Network
	Graph      *afdx.PortGraph
	Comparison *core.Comparison
}

// industrialEntry is one seed's singleflight slot: the first caller
// runs the generate+analyze, every concurrent caller with the same seed
// waits on the same once, and callers with different seeds proceed
// independently (the old implementation held one mutex across the whole
// computation, serializing unrelated seeds behind each other).
type industrialEntry struct {
	once sync.Once
	res  *IndustrialResult
	err  error
}

var (
	industrialMu    sync.Mutex
	industrialCache = map[int64]*industrialEntry{}
)

// Industrial generates (or returns the cached) synthetic industrial
// configuration for a seed and compares both methods over its >5000
// paths. Generation and analysis are deterministic per seed (and per
// the engines' reproducibility contract, independent of cfg.Parallel),
// so the per-seed result is computed once and shared; the first
// caller's worker-pool bound and observability context win.
func Industrial(cfg Config) (*IndustrialResult, error) {
	industrialMu.Lock()
	e := industrialCache[cfg.Seed]
	if e == nil {
		e = &industrialEntry{}
		industrialCache[cfg.Seed] = e
	}
	industrialMu.Unlock()
	e.once.Do(func() { e.res, e.err = buildIndustrial(cfg) })
	return e.res, e.err
}

func buildIndustrial(cfg Config) (*IndustrialResult, error) {
	net, err := configgen.Generate(configgen.DefaultSpec(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("experiments: generating industrial config: %w", err)
	}
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		return nil, fmt.Errorf("experiments: industrial port graph: %w", err)
	}
	cmp, err := core.Certify(cfg.context(), pg, cfg.Parallel)
	if err != nil {
		return nil, fmt.Errorf("experiments: industrial comparison: %w", err)
	}
	return &IndustrialResult{Net: net, Graph: pg, Comparison: cmp}, nil
}

// PaperTableI holds the reference values of the paper's Table I. The
// published scan is partially illegible; the values below are the
// standard reconstruction (legible digits plus the surrounding prose:
// "mean benefit ... over 10%", "up to 24%", "roughly 90% of VL paths",
// "8.9% more pessimistic in the worst case").
type PaperTableI struct {
	MeanBenefitPct, MaxBenefitPct, MinBenefitPct float64
	MeanBestPct, MaxBestPct, MinBestPct          float64
	TrajectoryWinFracApprox                      float64
}

// PaperTableIReference returns the reconstructed Table I reference.
func PaperTableIReference() PaperTableI {
	return PaperTableI{
		MeanBenefitPct: 10.46, MaxBenefitPct: 24.0, MinBenefitPct: -8.9,
		MeanBestPct: 10.7, MaxBestPct: 24.0, MinBestPct: 0,
		TrajectoryWinFracApprox: 0.90,
	}
}
