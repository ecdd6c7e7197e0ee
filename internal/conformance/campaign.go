package conformance

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/obs"
	"afdx/internal/parallel"
)

// Options parameterises a conformance campaign.
type Options struct {
	// N is the number of configurations to generate and check.
	N int
	// Seed derives every per-configuration generator seed; the same
	// (Seed, N) always checks the same configuration family.
	Seed int64
	// Parallel bounds the number of configurations checked concurrently
	// (<= 0 selects GOMAXPROCS, 1 is strictly sequential). The report
	// is identical for every worker count: each configuration's verdict
	// is a pure function of its seed, and results merge in index order.
	Parallel int
	// Budget, when positive, stops scheduling new configurations once
	// the elapsed wall time exceeds it (configurations already being
	// checked still finish and report). Skipped configurations are
	// counted, never silently dropped.
	Budget time.Duration
	// CorpusDir, when non-empty, receives one shrunk reproducing
	// configuration per violating (config, invariant) pair.
	CorpusDir string
	// ShrinkBudget bounds the oracle re-runs per shrink (default 200).
	ShrinkBudget int
	// Oracle overrides the invariant checker (fault-injection tests);
	// nil selects NewOracle().
	Oracle *Oracle
}

// DefaultOptions checks 100 configurations from seed 1, sequentially.
func DefaultOptions() Options {
	return Options{N: 100, Seed: 1, Parallel: 1}
}

// ConfigVerdict is the outcome of checking one configuration.
type ConfigVerdict struct {
	Index int   `json:"index"`
	Seed  int64 `json:"seed"`
	// VLs / Paths summarise the generated configuration.
	VLs        int         `json:"vls"`
	Paths      int         `json:"paths"`
	Violations []Violation `json:"violations,omitempty"`
	// AboveBest counts the paths whose largest witness exceeds the
	// certified bound (core.Certify's Best): the certified bound is
	// unsound there. Counted, not a violation.
	AboveBest int `json:"aboveBest,omitempty"`
	// GenError records a generator or engine rejection (counted
	// separately from invariant violations — an input the engines
	// refuse is the linter's business, not a conformance bug).
	GenError string `json:"genError,omitempty"`
	// Skipped marks configurations the time budget cut off.
	Skipped bool `json:"skipped,omitempty"`
	// ShrunkFile is the replay-corpus file the shrinker wrote.
	ShrunkFile string `json:"shrunkFile,omitempty"`
	// ShrunkVLs is the VL count of the minimised reproduction.
	ShrunkVLs int `json:"shrunkVLs,omitempty"`
}

// Report is the outcome of a campaign.
type Report struct {
	N             int   `json:"n"`
	Seed          int64 `json:"seed"`
	Checked       int   `json:"checked"`
	Skipped       int   `json:"skipped"`
	Violating     int   `json:"violatingConfigs"`
	NumViolations int   `json:"violations"`
	// AboveBestPaths sums ConfigVerdict.AboveBest over the campaign;
	// AboveBestConfigs counts the configurations with at least one such
	// path. Neither makes the campaign unclean.
	AboveBestPaths   int             `json:"aboveBestPaths"`
	AboveBestConfigs int             `json:"aboveBestConfigs"`
	ElapsedSec       float64         `json:"elapsedSec"`
	ConfigsPerSec    float64         `json:"configsPerSec"`
	Verdicts         []ConfigVerdict `json:"verdicts"`
}

// Clean reports whether the campaign found no violation (generator
// rejections and budget skips are not violations).
func (r *Report) Clean() bool { return r.NumViolations == 0 }

// FailingInvariants returns the distinct violated invariants, sorted.
func (r *Report) FailingInvariants() []Invariant {
	seen := map[Invariant]bool{}
	for _, v := range r.Verdicts {
		for _, viol := range v.Violations {
			seen[viol.Invariant] = true
		}
	}
	out := make([]Invariant, 0, len(seen))
	for inv := range seen {
		out = append(out, inv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// campaignSpec draws the generator spec of configuration i: small
// networks (the oracle runs every engine several times per config, and
// the shrinker wants short round trips) over the full spread of
// topology sizes, utilizations and contract histograms. Every fourth
// configuration is tiny so the exponential exact tier is exercised.
func campaignSpec(campaignSeed int64, i int) configgen.Spec {
	seed := campaignSeed + int64(i)*7919 // distinct prime-strided streams
	rng := rand.New(rand.NewSource(seed))
	spec := configgen.DefaultSpec(seed)
	spec.Name = fmt.Sprintf("conformance-%d-%d", campaignSeed, i)
	spec.NumSwitches = 2 + rng.Intn(3)
	spec.ESPerSwitch = 1 + rng.Intn(3)
	spec.NumVLs = 3 + rng.Intn(22)
	if i%4 == 0 {
		spec.NumVLs = 2 + rng.Intn(3) // exact-search tier
	}
	spec.MaxUtilization = 0.3 + 0.6*rng.Float64()
	spec.LocalityBias = 0.7 * rng.Float64()
	// Small BAGs keep the simulation horizon (a few hyperperiods of the
	// largest BAG) short; the full 1..128 ms spread is the industrial
	// generator's job, exercised by the experiments suite.
	spec.BAGWeights = map[float64]int{1: 2, 2: 3, 4: 3, 8: 2}
	spec.FanoutWeights = map[int]int{1: 5, 2: 3, 3: 2}
	return spec
}

// Run executes a conformance campaign: generate N configurations,
// check the invariant lattice on each, shrink and record every
// violation, and assemble the deterministic report.
func Run(opts Options) (*Report, error) {
	return RunCtx(context.Background(), opts)
}

// RunCtx is Run with observability: the campaign opens a "campaign"
// span, each configuration a "config:<i>" child, and the engines'
// spans and counters nest beneath those. The checked/violation
// counters are BestEffort — a time budget makes the set of checked
// configurations scheduling-dependent — but the report itself stays
// identical across worker counts, as before.
func RunCtx(ctx context.Context, opts Options) (*Report, error) {
	if opts.N <= 0 {
		return nil, fmt.Errorf("conformance: N must be positive, got %d", opts.N)
	}
	oracle := opts.Oracle
	if oracle == nil {
		oracle = NewOracle()
	}
	ctx, span := obs.StartSpan(ctx, "campaign")
	defer span.End()
	var checked, violations *obs.Counter
	if reg := obs.RegistryFrom(ctx); reg != nil {
		checked = reg.Counter("conformance.configs_checked", obs.BestEffort,
			"configurations the oracle fully checked (budget skips excluded)")
		violations = reg.Counter("conformance.violations", obs.BestEffort,
			"invariant violations found across the campaign")
	}
	start := time.Now()
	deadline := time.Time{}
	if opts.Budget > 0 {
		deadline = start.Add(opts.Budget)
	}

	verdicts := make([]ConfigVerdict, opts.N)
	err := parallel.ForEachCtx(ctx, opts.Parallel, opts.N, func(i int) error {
		cctx, cspan := obs.StartSpan(ctx, fmt.Sprintf("config:%d", i))
		defer cspan.End()
		spec := campaignSpec(opts.Seed, i)
		v := ConfigVerdict{Index: i, Seed: spec.Seed}
		defer func() { verdicts[i] = v }()
		if !deadline.IsZero() && time.Now().After(deadline) {
			v.Skipped = true
			return nil
		}
		net, err := configgen.Generate(spec)
		if err != nil {
			v.GenError = err.Error()
			return nil
		}
		st := net.ComputeStats()
		v.VLs, v.Paths = st.NumVLs, st.NumPaths
		vs, above, err := oracle.check(cctx, net)
		if err != nil {
			v.GenError = err.Error()
			return nil
		}
		v.Violations, v.AboveBest = vs, above
		if len(vs) > 0 && opts.CorpusDir != "" {
			v.ShrunkFile, v.ShrunkVLs = shrinkToCorpus(cctx, oracle, net, vs, opts)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{N: opts.N, Seed: opts.Seed, Verdicts: verdicts}
	fullyChecked := int64(0)
	for _, v := range verdicts {
		switch {
		case v.Skipped:
			rep.Skipped++
		default:
			rep.Checked++
		}
		if !v.Skipped && v.GenError == "" {
			fullyChecked++
		}
		if len(v.Violations) > 0 {
			rep.Violating++
			rep.NumViolations += len(v.Violations)
		}
		if v.AboveBest > 0 {
			rep.AboveBestConfigs++
			rep.AboveBestPaths += v.AboveBest
		}
	}
	// Counters are flushed once, on the calling goroutine, after the
	// pool returns (the batch-then-flush pattern DET005 enforces); the
	// counts stay BestEffort only because a time budget makes the set of
	// checked configurations scheduling-dependent.
	checked.Add(fullyChecked)
	violations.Add(int64(rep.NumViolations))
	rep.ElapsedSec = time.Since(start).Seconds()
	if rep.ElapsedSec > 0 {
		rep.ConfigsPerSec = float64(rep.Checked) / rep.ElapsedSec
	}
	return rep, nil
}

// shrinkToCorpus minimises the first violation's configuration and
// writes it to the replay corpus; it returns the file path (or "" when
// writing fails — the violation itself is still reported) and the
// minimised VL count.
func shrinkToCorpus(ctx context.Context, oracle *Oracle, net *afdx.Network, vs []Violation, opts Options) (string, int) {
	inv := vs[0].Invariant
	small := oracle.ShrinkCtx(ctx, net, inv, opts.ShrinkBudget)
	if err := os.MkdirAll(opts.CorpusDir, 0o755); err != nil {
		return "", 0
	}
	small.Name = fmt.Sprintf("shrunk-%s-%s", inv, net.Name)
	path := filepath.Join(opts.CorpusDir, small.Name+".json")
	if err := small.SaveJSON(path); err != nil {
		return "", 0
	}
	return path, len(small.VLs)
}
