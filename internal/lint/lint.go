// Package lint is a static-analysis engine over AFDX configurations,
// modeled on the go/analysis vocabulary: an Analyzer is a named,
// documented check with a stable diagnostic code; a Pass gives one
// analyzer access to the configuration (and, when derivable, its port
// graph); Run drives every registered analyzer and assembles a Report.
//
// The point of the subsystem is to move feasibility checking ahead of
// the expensive delay analyses: an unstable port, a routing loop, or an
// ARINC 664 contract violation is caught with a coded, located,
// actionable diagnostic instead of surfacing as a runtime error deep
// inside internal/netcalc or internal/trajectory. A full lint run of
// the 903-VL seed-1 industrial configuration takes about 18 ms (median
// of five traced certify-cold runs of cmd/afdx-bench on a 2-vCPU
// host), against about 100 ms for the two engines it guards. The
// engines share the same checks (CheckStability) so the two layers can
// never disagree.
package lint

import (
	"fmt"
	"sort"

	"afdx/internal/afdx"
	"afdx/internal/diag"
)

// Options configures a lint run.
type Options struct {
	// Mode selects Strict or Relaxed ARINC 664 contract validation.
	// Relaxed demotes out-of-standard BAG and frame-size values to
	// warnings (the paper's parametric sweeps use such values).
	Mode afdx.ValidationMode
	// UtilizationHeadroom is the port-utilization fraction above which
	// the stability analyzer emits a Warning even though the port is
	// still stable. Utilization above 1 is always an Error.
	UtilizationHeadroom float64
	// LinkUtilizationWarn is the admission-budget fraction above which
	// the link-utilization analyzer (AFDX013) warns; at or above the
	// full link rate it errors. Lower than UtilizationHeadroom: the
	// admission budget guards provisioning policy, the headroom guards
	// the stability frontier.
	LinkUtilizationWarn float64
}

// DefaultOptions lints with the strict ARINC 664 contract, a 95%
// utilization headroom warning threshold, and a 75% link admission
// budget.
func DefaultOptions() Options {
	return Options{Mode: afdx.Strict, UtilizationHeadroom: 0.95, LinkUtilizationWarn: 0.75}
}

// An Analyzer is one static check: a stable diagnostic code, a short
// name, one-paragraph documentation, and a Run function reporting
// findings through the Pass.
type Analyzer struct {
	// Code is the stable AFDX### diagnostic code every finding of this
	// analyzer carries. One code per analyzer.
	Code diag.Code
	// Name is the short kebab-case analyzer name.
	Name string
	// Doc documents what the analyzer checks and why it matters.
	Doc string
	// NeedsPorts marks analyzers that require the derived port graph;
	// they are skipped (and recorded in Report.Skipped) when the graph
	// cannot be built for the configuration under analysis.
	NeedsPorts bool
	// Run performs the check, reporting findings via pass.Report.
	Run func(pass *Pass)
}

// A Pass carries one analyzer invocation over one configuration.
type Pass struct {
	// Net is the configuration under analysis. Never nil.
	Net *afdx.Network
	// Graph is the derived port graph, non-nil only for analyzers with
	// NeedsPorts when derivation succeeded.
	Graph *afdx.PortGraph
	// Opts are the run options.
	Opts Options

	analyzer *Analyzer
	out      *[]diag.Diagnostic
}

// Report appends a finding. The diagnostic's code must be the
// analyzer's own; a mismatch is a programming error and panics.
func (p *Pass) Report(d diag.Diagnostic) {
	if d.Code != p.analyzer.Code {
		panic(fmt.Sprintf("lint: analyzer %s reported foreign code %s", p.analyzer.Name, d.Code))
	}
	*p.out = append(*p.out, d)
}

// Reportf builds and reports a finding with the analyzer's code.
func (p *Pass) Reportf(sev diag.Severity, loc diag.Location, suggestion, format string, args ...any) {
	p.Report(diag.New(p.analyzer.Code, sev, loc, suggestion, format, args...))
}

var registry []*Analyzer

// Register adds an analyzer to the global registry. It panics on a
// duplicate code or name, a malformed code, or an empty doc string —
// all programming errors caught at init time (and by the registry
// tests).
func Register(a *Analyzer) {
	if a.Name == "" || a.Doc == "" || a.Run == nil {
		panic(fmt.Sprintf("lint: analyzer %+v incompletely defined", a))
	}
	if len(a.Code) != 7 || a.Code[:4] != "AFDX" {
		panic(fmt.Sprintf("lint: analyzer %s has malformed code %q", a.Name, a.Code))
	}
	for _, b := range registry {
		if b.Code == a.Code || b.Name == a.Name {
			panic(fmt.Sprintf("lint: analyzer %s/%s collides with %s/%s", a.Name, a.Code, b.Name, b.Code))
		}
	}
	registry = append(registry, a)
}

// Analyzers returns the registered analyzers sorted by code.
func Analyzers() []*Analyzer {
	out := make([]*Analyzer, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// AnalyzerByCode returns the analyzer owning a code, or nil.
func AnalyzerByCode(code diag.Code) *Analyzer {
	for _, a := range registry {
		if a.Code == code {
			return a
		}
	}
	return nil
}

// Report is the outcome of linting one configuration.
type Report struct {
	// Network is the configuration name.
	Network string `json:"network"`
	// Diagnostics holds every finding, sorted errors-first then by code,
	// location and message.
	Diagnostics []diag.Diagnostic `json:"diagnostics"`
	// Skipped names the analyzers that could not run because the port
	// graph was not derivable (the structural findings explain why).
	Skipped []string `json:"skipped,omitempty"`
	// Errors, Warnings and Infos count the diagnostics by severity.
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	Infos    int `json:"infos"`
}

// HasErrors reports whether any Error-severity diagnostic was found.
func (r *Report) HasErrors() bool { return r.Errors > 0 }

// Codes returns the distinct diagnostic codes present, sorted.
func (r *Report) Codes() []diag.Code {
	seen := map[diag.Code]bool{}
	var out []diag.Code
	for _, d := range r.Diagnostics {
		if !seen[d.Code] {
			seen[d.Code] = true
			out = append(out, d.Code)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ExitCode maps the report to the afdx-lint process exit contract:
// 0 clean, 1 warnings only, 2 errors.
func (r *Report) ExitCode() int {
	switch {
	case r.Errors > 0:
		return 2
	case r.Warnings > 0:
		return 1
	default:
		return 0
	}
}

// Run lints a configuration with every registered analyzer and returns
// the assembled report. A threshold that is not positive (zero,
// negative or NaN) is unset and takes its DefaultOptions value.
// Port-level analyzers are skipped when the port graph cannot be
// derived (the structural diagnostics cover the cause); Run itself
// never fails and never panics on any decodable input.
func Run(net *afdx.Network, opts Options) *Report {
	// !(x > 0), not x <= 0: every comparison with NaN is false, so a
	// NaN threshold would otherwise silence its warning.
	if !(opts.UtilizationHeadroom > 0) {
		opts.UtilizationHeadroom = DefaultOptions().UtilizationHeadroom
	}
	if !(opts.LinkUtilizationWarn > 0) {
		opts.LinkUtilizationWarn = DefaultOptions().LinkUtilizationWarn
	}
	rep := &Report{Network: net.Name}
	// The port graph is derived under Relaxed validation so that
	// contract-level strictness (a matter for the contract analyzers)
	// does not mask the port-level checks.
	pg, pgErr := buildPortGraph(net)
	for _, a := range Analyzers() {
		pass := &Pass{Net: net, Opts: opts, analyzer: a, out: &rep.Diagnostics}
		if a.NeedsPorts {
			if pgErr != nil {
				rep.Skipped = append(rep.Skipped, a.Name)
				continue
			}
			pass.Graph = pg
		}
		a.Run(pass)
	}
	diag.Sort(rep.Diagnostics)
	rep.Errors, rep.Warnings, rep.Infos = diag.Count(rep.Diagnostics)
	return rep
}

// buildPortGraph derives the port graph defensively: derivation of a
// hostile configuration (fuzzed input) must not take the linter down.
func buildPortGraph(net *afdx.Network) (pg *afdx.PortGraph, err error) {
	defer func() {
		if r := recover(); r != nil {
			pg, err = nil, fmt.Errorf("lint: port graph derivation panicked: %v", r)
		}
	}()
	return afdx.BuildPortGraph(net, afdx.Relaxed)
}

// StabilityTolerance is the relative slack on the utilization-1.0
// stability frontier, absorbing float rounding in Σρ/R.
const StabilityTolerance = 1e-9

// UnstablePorts returns one Error diagnostic (code AFDX001) per port
// whose aggregate long-term rate exceeds the link rate, sorted by port.
// This is the shared stability check: the lint analyzer, the Network
// Calculus engine, and the Trajectory engine all consume it through
// PortGraph.UtilizationReport, so a configuration rejected by an engine
// is always flagged by the linter first.
func UnstablePorts(pg *afdx.PortGraph) []diag.Diagnostic {
	util := pg.UtilizationReport()
	ids := make([]afdx.PortID, 0, len(util))
	for id := range util {
		ids = append(ids, id)
	}
	afdx.SortPortIDs(ids)
	var ds []diag.Diagnostic
	for _, id := range ids {
		if u := util[id]; u > 1+StabilityTolerance {
			ds = append(ds, diag.New(diag.CodeStability, diag.Error,
				diag.Location{Link: id.String()},
				"move VLs off the port, raise the link rate, or enlarge BAGs: no finite delay bound exists",
				"port %s unstable: utilization %.3f (aggregate rate %.3f bits/us exceeds link rate %.3f)",
				id, u, u*pg.Ports[id].RateBitsPerUs, pg.Ports[id].RateBitsPerUs))
		}
	}
	return ds
}

// CheckStability is the engines' pre-flight: it returns an error
// carrying the AFDX001 code and the first unstable port, or nil when
// every port is stable.
func CheckStability(pg *afdx.PortGraph) error {
	if ds := UnstablePorts(pg); len(ds) > 0 {
		return fmt.Errorf("[%s] %s", ds[0].Code, ds[0].Message)
	}
	return nil
}
