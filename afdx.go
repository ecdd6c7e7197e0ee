// Package afdx computes worst-case end-to-end delay bounds for AFDX
// (ARINC 664 part 7) avionics networks, reproducing Bauer, Scharbarg &
// Fraboul, "Worst-case end-to-end delay analysis of an avionics AFDX
// network" (DATE 2010).
//
// The package bundles:
//
//   - a structural model of AFDX configurations (end systems, switches,
//     multicast Virtual Links with BAG / s_min / s_max contracts);
//   - the Network Calculus analysis used for certification, with the
//     grouping (serialization) refinement;
//   - the Trajectory approach (busy-period response-time analysis),
//     with the same refinement;
//   - the combined analysis that keeps the tighter bound per VL path —
//     the paper's primary contribution — whose one entry point for the
//     certified bound is Certify;
//   - a discrete-event simulator producing achievable delays;
//   - a generator of synthetic industrial-scale configurations matching
//     the published statistics of the (proprietary) Airbus network;
//   - a cross-engine conformance oracle that generates configuration
//     families and asserts the invariant lattice relating all of the
//     above (simulated ≤ achievable ≤ analytic bounds, combined =
//     per-path minimum, refinements never loosen), with a shrinker
//     that minimises violations into a replay corpus.
//
// # Quick start
//
//	net := afdx.Figure2Config()              // the paper's sample network
//	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
//	cmp, err := afdx.Compare(pg)             // certified bounds, per path
//	s := cmp.Summary()                       // Table I statistics
//
// The internal packages hold the implementations; this package is the
// stable public surface re-exporting them.
package afdx

import (
	"context"
	"io"

	iafdx "afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/conformance"
	"afdx/internal/core"
	"afdx/internal/diag"
	"afdx/internal/exact"
	"afdx/internal/incremental"
	"afdx/internal/lint"
	"afdx/internal/netcalc"
	"afdx/internal/obs"
	"afdx/internal/sim"
	"afdx/internal/trajectory"
)

// Network model types.
type (
	// Network is a static AFDX configuration.
	Network = iafdx.Network
	// VirtualLink is an ARINC 664 Virtual Link with its traffic contract
	// and multicast routing.
	VirtualLink = iafdx.VirtualLink
	// Params carries the physical parameters (link rate, latencies).
	Params = iafdx.Params
	// PathID identifies one (VL, destination) end-to-end path.
	PathID = iafdx.PathID
	// PortID identifies an output port by its directed link.
	PortID = iafdx.PortID
	// Port is one FIFO output port with its competing flows.
	Port = iafdx.Port
	// PortGraph is the derived, analysable port-level view of a Network.
	PortGraph = iafdx.PortGraph
	// Stats summarises a configuration.
	Stats = iafdx.Stats
	// ValidationMode selects Strict or Relaxed contract validation.
	ValidationMode = iafdx.ValidationMode
)

// SortPortIDs orders port identifiers by (From, To), the canonical
// iteration order for per-port results gathered from a map.
func SortPortIDs(ids []PortID) { iafdx.SortPortIDs(ids) }

// SortPathIDs orders path identifiers by (VL, PathIdx), the canonical
// iteration order for per-path results gathered from a map.
func SortPathIDs(ids []PathID) { iafdx.SortPathIDs(ids) }

// ParsePathArg parses the command-line path form: vl/pathIdx with a
// non-negative decimal index, or a bare vl meaning its path 0.
func ParsePathArg(s string) (PathID, error) { return iafdx.ParsePathArg(s) }

// Validation modes.
const (
	// Strict enforces the full ARINC 664 contract (power-of-two BAGs,
	// Ethernet frame bounds).
	Strict = iafdx.Strict
	// Relaxed allows the out-of-standard values used by the paper's
	// parametric sweeps.
	Relaxed = iafdx.Relaxed
)

// DefaultParams returns the paper's physical parameters: 100 Mb/s links,
// 16 us technological latency per output port.
func DefaultParams() Params { return iafdx.DefaultParams() }

// BuildPortGraph validates a configuration and derives its port graph.
func BuildPortGraph(n *Network, mode ValidationMode) (*PortGraph, error) {
	return iafdx.BuildPortGraph(n, mode)
}

// LoadJSON reads and validates a configuration file.
func LoadJSON(path string, mode ValidationMode) (*Network, error) {
	return iafdx.LoadJSON(path, mode)
}

// DecodeJSON parses a configuration without validating it (the linter's
// entry point: it reports every violation itself).
func DecodeJSON(r io.Reader) (*Network, error) { return iafdx.DecodeJSON(r) }

// Figure1Config returns a reconstruction of the paper's illustrative
// Figure 1 configuration.
func Figure1Config() *Network { return iafdx.Figure1Config() }

// Figure2Config returns the paper's Figure 2 sample configuration.
func Figure2Config() *Network { return iafdx.Figure2Config() }

// Static analysis (linting) of configurations.
type (
	// Diagnostic is one coded, located, graded lint finding.
	Diagnostic = diag.Diagnostic
	// DiagnosticCode is a stable AFDX### diagnostic identifier.
	DiagnosticCode = diag.Code
	// Severity grades a diagnostic (Info, Warning, Error).
	Severity = diag.Severity
	// LintAnalyzer is one registered static check.
	LintAnalyzer = lint.Analyzer
	// LintOptions configures a lint run.
	LintOptions = lint.Options
	// LintReport is the outcome of linting one configuration, with
	// text, JSON, and SARIF renderers and the 0/1/2 exit-code mapping.
	LintReport = lint.Report
)

// Diagnostic severities.
const (
	SeverityInfo    = diag.Info
	SeverityWarning = diag.Warning
	SeverityError   = diag.Error
)

// DefaultLintOptions lints with the strict ARINC 664 contract and a 95%
// utilization headroom warning threshold.
func DefaultLintOptions() LintOptions { return lint.DefaultOptions() }

// Lint runs every registered static analyzer over a configuration and
// returns the assembled report. It never fails: a broken configuration
// yields Error diagnostics, not an error.
func Lint(net *Network, opts LintOptions) *LintReport { return lint.Run(net, opts) }

// LintAnalyzers returns the registered analyzers sorted by code.
func LintAnalyzers() []*LintAnalyzer { return lint.Analyzers() }

// Network Calculus analysis.
type (
	// NCOptions selects Network Calculus variants (grouping, staircase
	// envelopes, worker count).
	NCOptions = netcalc.Options
	// NCResult carries per-port and per-path Network Calculus bounds.
	// Each port result also holds the bounds of the flows crossing it
	// (delay, prefix and burst), in the port graph's Port.Flows order.
	NCResult = netcalc.Result
)

// DefaultNCOptions matches the paper's WCNC column (grouping enabled).
func DefaultNCOptions() NCOptions { return netcalc.DefaultOptions() }

// AnalyzeNC runs the Network Calculus analysis.
func AnalyzeNC(pg *PortGraph, opts NCOptions) (*NCResult, error) {
	return netcalc.Analyze(pg, opts)
}

// AnalyzeNCCtx is AnalyzeNC with observability threaded through the
// context (see WithObservation).
func AnalyzeNCCtx(ctx context.Context, pg *PortGraph, opts NCOptions) (*NCResult, error) {
	return netcalc.AnalyzeCtx(ctx, pg, opts)
}

// Trajectory analysis.
type (
	// TrajectoryOptions selects Trajectory variants (grouping, the
	// shared-transition refinement, worker count).
	TrajectoryOptions = trajectory.Options
	// TrajectoryResult carries per-path Trajectory bounds and details.
	TrajectoryResult = trajectory.Result
)

// DefaultTrajectoryOptions matches the paper's Trajectory column.
func DefaultTrajectoryOptions() TrajectoryOptions { return trajectory.DefaultOptions() }

// AnalyzeTrajectory runs the Trajectory analysis.
func AnalyzeTrajectory(pg *PortGraph, opts TrajectoryOptions) (*TrajectoryResult, error) {
	return trajectory.Analyze(pg, opts)
}

// AnalyzeTrajectoryCtx is AnalyzeTrajectory with observability threaded
// through the context (see WithObservation).
func AnalyzeTrajectoryCtx(ctx context.Context, pg *PortGraph, opts TrajectoryOptions) (*TrajectoryResult, error) {
	return trajectory.AnalyzeCtx(ctx, pg, opts)
}

// TrajectoryExplanation decomposes one path's trajectory bound into its
// interference, transition and latency terms.
type TrajectoryExplanation = trajectory.Explanation

// ExplainTrajectory returns the term-by-term decomposition of one
// path's trajectory bound (the reviewable certification witness).
func ExplainTrajectory(pg *PortGraph, pid PathID, opts TrajectoryOptions) (*TrajectoryExplanation, error) {
	return trajectory.Explain(pg, pid, opts)
}

// ExplainTrajectoryCtx is ExplainTrajectory with cancellation and
// observability threaded through the context, and the S_max prefix
// bounds taken from the caller's NC result when it ran under the
// default NC options (nil, or any other result, runs a private prefix
// analysis). The decomposition is read off the engine's own run at the
// critical offset, so its terms sum to the bound bit for bit.
func ExplainTrajectoryCtx(ctx context.Context, pg *PortGraph, pid PathID, opts TrajectoryOptions, nc *NCResult) (*TrajectoryExplanation, error) {
	return trajectory.ExplainCtx(ctx, pg, pid, opts, nc)
}

// NCExplanation decomposes one path's Network Calculus bound into its
// per-port terms: NCResult.Explain projects it out of a result, with
// no engine run.
type NCExplanation = netcalc.PathExplanation

// Combined comparison (the paper's primary contribution).
type (
	// Comparison is the per-path comparison of both methods.
	Comparison = core.Comparison
	// PathComparison carries one path's three bounds and benefits.
	PathComparison = core.PathComparison
	// ComparisonSummary is the Table I statistics structure.
	ComparisonSummary = core.Summary
)

// Certify runs the certified analysis: WCNC and the grouped
// trajectory under their paper defaults at the given worker count
// (<= 0 selects all CPUs; bounds are identical either way), sharing one
// WCNC run, with observability threaded through the context (see
// WithObservation). Its BestUs column is the certified bound that
// afdx-bounds prints, afdx-serve serves and the conformance oracle
// checks witnesses against.
func Certify(ctx context.Context, pg *PortGraph, workers int) (*Comparison, error) {
	return core.Certify(ctx, pg, workers)
}

// Compare is Certify on all CPUs without observability;
// Comparison.Summary yields Table I, ByBAG Figure 5 and BySmax
// Figure 6.
func Compare(pg *PortGraph) (*Comparison, error) { return core.Compare(pg) }

// CompareWith runs both analyses with explicit options.
func CompareWith(pg *PortGraph, nc NCOptions, tr TrajectoryOptions) (*Comparison, error) {
	return core.CompareWith(pg, nc, tr)
}

// CompareWithCtx is CompareWith with observability threaded through
// the context.
func CompareWithCtx(ctx context.Context, pg *PortGraph, nc NCOptions, tr TrajectoryOptions) (*Comparison, error) {
	return core.CompareWithCtx(ctx, pg, nc, tr)
}

// What-if re-analysis: sessions that apply deltas and analyse cold.
type (
	// IncrementalSession is a stateful what-if loop: apply deltas,
	// re-analyse the resulting configuration from scratch, by default
	// with Certify.
	IncrementalSession = incremental.Session
	// IncrementalOptions binds a session's validation mode and the
	// analysis every round runs (nil: Certify on all CPUs).
	IncrementalOptions = incremental.Options
	// Delta is one configuration mutation (BAG, s_max, priority,
	// reroute, VL added or removed).
	Delta = incremental.Delta
)

// DefaultIncrementalOptions certifies every round under Strict
// validation.
func DefaultIncrementalOptions() IncrementalOptions { return incremental.DefaultOptions() }

// NewIncrementalSession opens a what-if session over a private clone of
// the configuration.
func NewIncrementalSession(net *Network, opts IncrementalOptions) (*IncrementalSession, error) {
	return incremental.NewSession(net, opts)
}

// ParseDelta parses the compact delta syntax used by afdx-bounds
// ("bag v1 16", "smax v2 200", "priority v1 1", "drop v5",
// "reroute v1 es1,s1,es2", "add {...vl json...}").
func ParseDelta(s string) (Delta, error) { return incremental.ParseDelta(s) }

// AnalyzeIncremental applies a delta batch to the session and
// re-analyses; the batch is committed only when its analysis succeeds,
// so a rejected batch or a failed analysis leaves the session
// unchanged. The comparison, engine results included, is bit-identical
// to a cold run of the session's analysis on the mutated configuration
// (by default Certify), at every worker count.
func AnalyzeIncremental(ctx context.Context, s *IncrementalSession, deltas ...Delta) (*Comparison, error) {
	return s.WhatIf(ctx, deltas...)
}

// Simulation.
type (
	// SimConfig parameterises a simulation run.
	SimConfig = sim.Config
	// SimResult carries observed per-path delays.
	SimResult = sim.Result
	// SourceModel selects the simulated emission behaviour.
	SourceModel = sim.SourceModel
)

// Source models.
const (
	// GreedySources emit a frame every BAG (maximum contracted load).
	GreedySources = sim.GreedySources
	// PeriodicJitterSources add per-frame random emission jitter.
	PeriodicJitterSources = sim.PeriodicJitterSources
)

// DefaultSimConfig simulates greedy sources with random offsets.
func DefaultSimConfig(seed int64) SimConfig { return sim.DefaultConfig(seed) }

// Simulate runs the discrete-event simulator.
func Simulate(pg *PortGraph, cfg SimConfig) (*SimResult, error) { return sim.Run(pg, cfg) }

// SimulateCtx is Simulate with observability threaded through the
// context (see WithObservation).
func SimulateCtx(ctx context.Context, pg *PortGraph, cfg SimConfig) (*SimResult, error) {
	return sim.RunCtx(ctx, pg, cfg)
}

// Synthetic industrial configurations.
type (
	// GeneratorSpec parameterises the synthetic configuration generator.
	GeneratorSpec = configgen.Spec
)

// DefaultGeneratorSpec reproduces the published statistics of the
// paper's industrial configuration for a seed.
func DefaultGeneratorSpec(seed int64) GeneratorSpec { return configgen.DefaultSpec(seed) }

// Generate builds a synthetic industrial configuration.
func Generate(spec GeneratorSpec) (*Network, error) { return configgen.Generate(spec) }

// Mirror materialises the ARINC 664 dual-network (A/B) redundancy of a
// configuration: two isomorphic sub-networks, every VL duplicated.
func Mirror(n *Network) (*Network, error) { return configgen.Mirror(n) }

// Cross-engine conformance oracle (randomized differential testing).
type (
	// ConformanceOptions parameterises a conformance campaign.
	ConformanceOptions = conformance.Options
	// ConformanceReport is the deterministic campaign outcome.
	ConformanceReport = conformance.Report
	// ConformanceOracle checks the invariant lattice on one
	// configuration, with injectable engines for fault-injection tests.
	ConformanceOracle = conformance.Oracle
	// ConformanceViolation is one failed invariant on one path.
	ConformanceViolation = conformance.Violation
	// ConformanceInvariant names one relation of the invariant lattice.
	ConformanceInvariant = conformance.Invariant
)

// DefaultConformanceOptions checks 100 configurations from seed 1.
func DefaultConformanceOptions() ConformanceOptions { return conformance.DefaultOptions() }

// RunConformance executes a conformance campaign: generate
// configurations, run every engine on each, assert the invariant
// lattice (observed ≤ achievable ≤ analytic bounds, combined = per-path
// minimum, grouping and contract tightening never loosen a bound,
// parallel runs bit-identical to sequential), and shrink violations to
// minimal reproducing configurations.
func RunConformance(opts ConformanceOptions) (*ConformanceReport, error) {
	return conformance.Run(opts)
}

// RunConformanceCtx is RunConformance with observability threaded
// through the context: the campaign opens a "campaign" span with one
// "config:<i>" child per configuration, and every engine run nests
// its spans and counters beneath those.
func RunConformanceCtx(ctx context.Context, opts ConformanceOptions) (*ConformanceReport, error) {
	return conformance.RunCtx(ctx, opts)
}

// NewConformanceOracle returns the invariant checker over the real
// engines with default budgets.
func NewConformanceOracle() *ConformanceOracle { return conformance.NewOracle() }

// Exact worst-case search (offset exploration; small configurations).
type (
	// ExactOptions parameterises the offset search.
	ExactOptions = exact.Options
	// ExactResult carries the worst achievable delays found and their
	// witness offset assignments.
	ExactResult = exact.Result
)

// DefaultExactOptions uses an eighth-of-BAG grid with refinement.
func DefaultExactOptions() ExactOptions { return exact.DefaultOptions() }

// SearchWorstCase explores source emission offsets with the simulator
// and returns achievable worst-case delays per path (lower bounds that
// sandwich the analytic upper bounds).
func SearchWorstCase(pg *PortGraph, opts ExactOptions) (*ExactResult, error) {
	return exact.Search(pg, opts)
}

// SearchWorstCaseCtx is SearchWorstCase with observability threaded
// through the context.
func SearchWorstCaseCtx(ctx context.Context, pg *PortGraph, opts ExactOptions) (*ExactResult, error) {
	return exact.SearchCtx(ctx, pg, opts)
}

// Observability (engine metrics and span tracing).
//
// The engines are observation-transparent: attaching a registry or
// tracer never changes any computed bound, and the Deterministic
// subset of the metric snapshot is bit-identical across worker counts
// and repeated runs.
type (
	// ObsRegistry collects named counters and histograms from every
	// engine run under a context carrying it.
	ObsRegistry = obs.Registry
	// ObsSnapshot is a sorted, immutable capture of a registry.
	ObsSnapshot = obs.Snapshot
	// ObsTracer records hierarchical spans (campaign → config →
	// engine) for Chrome-trace export or text trees.
	ObsTracer = obs.Tracer
)

// NewObsRegistry returns an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewObsTracer returns a span tracer whose clock starts now.
func NewObsTracer() *ObsTracer { return obs.NewTracer() }

// WithObservation attaches a registry and/or tracer (either may be
// nil) to a context; pass the context to the *Ctx analysis variants
// to collect metrics and spans from the run.
func WithObservation(ctx context.Context, reg *ObsRegistry, tr *ObsTracer) context.Context {
	if reg != nil {
		ctx = obs.WithRegistry(ctx, reg)
	}
	if tr != nil {
		ctx = obs.WithTracer(ctx, tr)
	}
	return ctx
}
