// Command afdx-bounds computes worst-case end-to-end delay bounds for
// every Virtual Link path of an AFDX configuration, using the Network
// Calculus analysis, the Trajectory approach, or both. By default it
// prints the certified comparison (afdx.Certify): both bounds and the
// Best of the two per path, the paper's combined method.
//
// Usage:
//
//	afdx-bounds -config net.json                 # both methods + best
//	afdx-bounds -config net.json -method nc      # Network Calculus only
//	afdx-bounds -config net.json -no-grouping    # disable serialization
//	afdx-bounds -config net.json -csv > out.csv  # machine-readable
//	afdx-bounds -config net.json -explain v1/0   # one path's decomposition
//
// The separated bound of a plain Total Flow Analysis is -no-grouping.
// -backlog reads the network calculus run, so it does not combine with
// -method trajectory; that and an unknown -method are usage errors,
// reported before the configuration is read. -explain takes
// vl/pathIdx (a bare vl means path 0); a malformed value or a path the
// configuration lacks is a usage error, reported before any analysis
// runs. It prints one decomposition per method that ran, each read off
// the run that computed the table's bound.
//
// What-if mode re-analyses the configuration under deltas: after the
// base table, each -delta (or each line of the -whatif file; '-' reads
// stdin) is applied to a what-if session and the bounds table is
// reprinted, byte-identical to a cold run on the mutated
// configuration:
//
//	afdx-bounds -config net.json -delta 'bag v3 16' -delta 'drop v7'
//	afdx-bounds -config net.json -whatif scenario.txt
//
// Every what-if round runs the certified two-engine comparison, so
// -delta and -whatif need -method both; with nc or trajectory they are
// a usage error, reported before the configuration is read.
//
// Delta commands: 'bag <vl> <ms>', 'smax <vl> <bytes>',
// 'priority <vl> <level>', 'drop <vl>', 'reroute <vl> <node,node,...>
// [<path> ...]', 'add <vl json>'. Deltas compose: each applies on top
// of the previous one's configuration. A delta that does not parse, or
// that the session rejects (an unknown VL, a result that fails
// validation), is a usage error; one whose analysis fails is an
// analysis failure. Every delta is read and parsed before the
// configuration is loaded, so an unreadable -whatif file or a
// malformed delta exits before any table is printed.
//
// Observability (shared across every afdx-* command; see
// internal/obs/cliobs): -metrics writes the engines' counter and
// histogram snapshot as JSON, -tracefile a Chrome-trace-viewer span
// trace, -spantree a human span summary on stderr, and -cpuprofile /
// -memprofile / -trace drive the Go runtime profilers.
//
// Before any analysis the configuration is linted (cmd/afdx-lint's
// analyzers); lint errors abort the run before the engines start.
// -no-lint skips the gate for debugging.
//
// Exit codes, for scripted callers:
//
//	0  success
//	1  analysis failure (an engine rejected the configuration)
//	2  usage error or unreadable/invalid configuration file
//	3  infeasible configuration caught by the lint pre-flight
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"afdx"
	"afdx/internal/incremental"
	"afdx/internal/obs/cliobs"
	"afdx/internal/report"
)

// Exit codes of the documented contract.
const (
	exitOK       = 0
	exitAnalysis = 1
	exitUsage    = 2
	exitLint     = 3
)

// sess flushes the observability artifacts on every exit path.
var sess *cliobs.Session

// fail prints the error and exits with the given contract code.
func fail(code int, err error) {
	log.Print(err)
	sess.Exit(code)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("afdx-bounds: ")
	var (
		config     = flag.String("config", "", "network configuration JSON (required)")
		method     = flag.String("method", "both", "nc | trajectory | both (-delta and -whatif need both)")
		noGrouping = flag.Bool("no-grouping", false, "disable the grouping (serialization) technique")
		parallelN  = flag.Int("parallel", 0, "analysis worker count (0 = all CPUs, 1 = sequential; bounds are identical either way)")
		relaxed    = flag.Bool("relaxed", false, "relax ARINC 664 contract validation")
		noLint     = flag.Bool("no-lint", false, "skip the lint pre-flight gate")
		csv        = flag.Bool("csv", false, "emit CSV instead of a table")
		backlog    = flag.Bool("backlog", false, "also print per-port backlog bounds (NC)")
		jitter     = flag.Bool("jitter", false, "also print per-path jitter (bound minus idle-network floor)")
		esJitter   = flag.Bool("es-jitter", false, "also print the ARINC 664 end-system output jitter report")
		explain    = flag.String("explain", "", "print one path's bound decomposition for each method run (e.g. v1/0)")
		whatif     = flag.String("whatif", "", "file of what-if delta commands, one per line ('-' = stdin; blank lines and # comments skipped); needs -method both")
	)
	var deltaCmds multiFlag
	flag.Var(&deltaCmds, "delta", "what-if delta command (repeatable; e.g. 'bag v1 16', 'drop v5'): applied in order after the base analysis; needs -method both")
	obsFlags := cliobs.Register(flag.CommandLine)
	flag.Parse()
	if *config == "" {
		flag.Usage()
		os.Exit(exitUsage)
	}
	if *parallelN < 0 {
		log.Printf("-parallel must be non-negative, got %d", *parallelN)
		os.Exit(exitUsage)
	}
	switch *method {
	case "both", "nc", "trajectory":
	default:
		log.Printf("unknown method %q (want nc, trajectory or both)", *method)
		os.Exit(exitUsage)
	}
	if *backlog && *method == "trajectory" {
		log.Print("-backlog prints the network calculus run's backlogs: it needs -method nc or both, not trajectory")
		os.Exit(exitUsage)
	}
	if *method != "both" && (len(deltaCmds) > 0 || *whatif != "") {
		log.Printf("-delta and -whatif rounds print the two-engine comparison: they need -method both, not %s", *method)
		os.Exit(exitUsage)
	}
	var explainPath afdx.PathID
	var err error
	if *explain != "" {
		if explainPath, err = afdx.ParsePathArg(*explain); err != nil {
			log.Printf("bad -explain value: %v", err)
			os.Exit(exitUsage)
		}
	}
	deltas, err := readDeltas(deltaCmds, *whatif)
	if err != nil {
		log.Print(err)
		os.Exit(exitUsage)
	}
	if sess, err = obsFlags.Start(); err != nil {
		fail(exitUsage, err)
	}
	ctx := sess.Context()
	mode := afdx.Strict
	if *relaxed {
		mode = afdx.Relaxed
	}
	net, err := afdx.LoadJSON(*config, mode)
	if err != nil {
		fail(exitUsage, err)
	}
	if *explain != "" && !net.HasPath(explainPath) {
		fail(exitUsage, fmt.Errorf("bad -explain value %q: the configuration has no path %v", *explain, explainPath))
	}
	if !*noLint {
		preflight(net, mode)
	}
	pg, err := afdx.BuildPortGraph(net, mode)
	if err != nil {
		fail(exitUsage, err)
	}

	ncOpts := afdx.DefaultNCOptions()
	trOpts := afdx.DefaultTrajectoryOptions()
	ncOpts.Grouping = !*noGrouping
	trOpts.Grouping = !*noGrouping
	ncOpts.Parallel = *parallelN
	trOpts.Parallel = *parallelN
	// Both methods run as one comparison, whose WCNC pass also supplies
	// the trajectory engine's prefix bounds: the certified analysis, or
	// with -no-grouping both engines' separated bounds. What-if rounds
	// run the same analysis.
	analysis := func(ctx context.Context, pg *afdx.PortGraph) (*afdx.Comparison, error) {
		return afdx.Certify(ctx, pg, *parallelN)
	}
	if *noGrouping {
		analysis = func(ctx context.Context, pg *afdx.PortGraph) (*afdx.Comparison, error) {
			return afdx.CompareWithCtx(ctx, pg, ncOpts, trOpts)
		}
	}

	// One run feeds the table, -backlog and -explain.
	var (
		headers []string
		rows    [][]string
		ncRes   *afdx.NCResult
		trRes   *afdx.TrajectoryResult
	)
	switch *method {
	case "both":
		var cmp *afdx.Comparison
		if cmp, err = analysis(ctx, pg); err != nil {
			fail(exitAnalysis, err)
		}
		ncRes, trRes = cmp.NC, cmp.Trajectory
		headers, rows = comparisonTable(cmp, *jitter)
	case "nc":
		if ncRes, err = afdx.AnalyzeNCCtx(ctx, pg, ncOpts); err != nil {
			fail(exitAnalysis, err)
		}
		headers, rows, err = engineTable(pg, "WCNC (us)", ncRes.PathDelays, *jitter)
	case "trajectory":
		if trRes, err = afdx.AnalyzeTrajectoryCtx(ctx, pg, trOpts); err != nil {
			fail(exitAnalysis, err)
		}
		headers, rows, err = engineTable(pg, "Trajectory (us)", trRes.PathDelays, *jitter)
	}
	if err != nil {
		fail(exitAnalysis, err)
	}
	emit := report.Table
	if *csv {
		emit = report.CSV
	}
	if err := emit(os.Stdout, headers, rows); err != nil {
		fail(exitAnalysis, err)
	}

	if len(deltas) > 0 {
		runWhatIf(ctx, net, afdx.IncrementalOptions{Mode: mode, Analysis: analysis}, deltas, *jitter, emit)
	}

	if *explain != "" {
		// One block per method that ran; the trajectory explanation
		// reuses the run's options and its WCNC result for its prefix
		// bounds.
		if ncRes != nil {
			printExplanation(ncRes.Explain(pg, explainPath))
		}
		if trRes != nil {
			printExplanation(afdx.ExplainTrajectoryCtx(ctx, pg, explainPath, trRes.Opts, ncRes))
		}
	}

	if *esJitter {
		fmt.Println()
		fmt.Println("ARINC 664 end-system output jitter (cap 500 us):")
		jrows := [][]string{}
		for _, r := range net.ESJitterReport() {
			status := "ok"
			if !r.Compliant {
				status = "EXCEEDS CAP"
			}
			jrows = append(jrows, []string{r.EndSystem, report.Int(r.NumVLs), report.Us(r.JitterUs), status})
		}
		if err := emit(os.Stdout, []string{"end system", "VLs", "jitter (us)", "status"}, jrows); err != nil {
			fail(exitAnalysis, err)
		}
	}

	if *backlog {
		fmt.Println()
		fmt.Println("Per-port backlog bounds (switch buffer dimensioning):")
		ids := make([]afdx.PortID, 0, len(ncRes.Ports))
		for id := range ncRes.Ports {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i].String() < ids[j].String() })
		brows := make([][]string, 0, len(ids))
		for _, id := range ids {
			p := ncRes.Ports[id]
			brows = append(brows, []string{
				id.String(),
				fmt.Sprintf("%.0f", p.BacklogBits),
				fmt.Sprintf("%.0f", p.BacklogBits/8),
				fmt.Sprintf("%.1f%%", p.Utilization*100),
				report.Us(p.DelayUs),
			})
		}
		if err := emit(os.Stdout, []string{"port", "backlog (bits)", "backlog (bytes)", "utilization", "delay (us)"}, brows); err != nil {
			fail(exitAnalysis, err)
		}
	}
	sess.Exit(exitOK)
}

// printExplanation prints one -explain block after a blank line, or
// fails the run with the explanation's error.
func printExplanation(ex interface{ Render(io.Writer) error }, err error) {
	if err == nil {
		fmt.Println()
		err = ex.Render(os.Stdout)
	}
	if err != nil {
		fail(exitAnalysis, err)
	}
}

// multiFlag collects a repeatable string flag in order of appearance.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, "; ") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// comparisonTable renders a two-engine run from its PathComparison:
// both bounds, Best, the trajectory's benefit and, with -jitter, Best
// above the idle-network floor.
func comparisonTable(cmp *afdx.Comparison, jitter bool) ([]string, [][]string) {
	headers := []string{"path", "WCNC (us)", "Trajectory (us)", "Best (us)", "benefit"}
	if jitter {
		headers = append(headers, "jitter (us)")
	}
	paths := cmp.Net.AllPaths()
	afdx.SortPathIDs(paths)
	rows := make([][]string, 0, len(paths))
	for _, pid := range paths {
		pc := cmp.PerPath[pid]
		row := []string{pid.String(), report.Us(pc.NCUs), report.Us(pc.TrajectoryUs),
			report.Us(pc.BestUs), report.Pct(pc.BenefitPct)}
		if jitter {
			row = append(row, report.Us(pc.JitterUs))
		}
		rows = append(rows, row)
	}
	return headers, rows
}

// engineTable renders a single-engine run (-method nc or trajectory):
// its bound column and, with -jitter, the bound above the idle-network
// floor.
func engineTable(pg *afdx.PortGraph, column string, delays map[afdx.PathID]float64, jitter bool) ([]string, [][]string, error) {
	headers := []string{"path", column}
	if jitter {
		headers = append(headers, "jitter (us)")
	}
	paths := pg.Net.AllPaths()
	afdx.SortPathIDs(paths)
	rows := make([][]string, 0, len(paths))
	for _, pid := range paths {
		row := []string{pid.String(), report.Us(delays[pid])}
		if jitter {
			floor, err := pg.MinPathDelayUs(pid)
			if err != nil {
				return nil, nil, err
			}
			row = append(row, report.Us(delays[pid]-floor))
		}
		rows = append(rows, row)
	}
	return headers, rows, nil
}

// readDeltas reads and parses the what-if input: the -delta commands
// in flag order, then the -whatif file's lines ('-' reads stdin; blank
// lines and # comments are skipped).
func readDeltas(cmds []string, file string) ([]afdx.Delta, error) {
	lines := append([]string{}, cmds...)
	if file != "" {
		var data []byte
		var err error
		if file == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(file)
		}
		if err != nil {
			return nil, fmt.Errorf("reading what-if input: %w", err)
		}
		for _, ln := range strings.Split(string(data), "\n") {
			ln = strings.TrimSpace(ln)
			if ln == "" || strings.HasPrefix(ln, "#") {
				continue
			}
			lines = append(lines, ln)
		}
	}
	deltas := make([]afdx.Delta, len(lines))
	for i, ln := range lines {
		d, err := afdx.ParseDelta(ln)
		if err != nil {
			return nil, err
		}
		deltas[i] = d
	}
	return deltas, nil
}

// runWhatIf drives the what-if loop: each delta is applied on top of
// the previous configuration, with the comparison table reprinted after
// every delta.
func runWhatIf(ctx context.Context, net *afdx.Network, opts afdx.IncrementalOptions, deltas []afdx.Delta, jitter bool, emit func(w io.Writer, headers []string, rows [][]string) error) {
	ws, err := afdx.NewIncrementalSession(net, opts)
	if err != nil {
		fail(exitAnalysis, err)
	}
	for _, d := range deltas {
		res, err := afdx.AnalyzeIncremental(ctx, ws, d)
		if err != nil {
			code := exitAnalysis
			var bad *incremental.BadDeltaError
			if errors.As(err, &bad) {
				code = exitUsage
			}
			fail(code, fmt.Errorf("what-if %q: %w", d, err))
		}
		fmt.Printf("\nwhat-if: %s\n", d)
		headers, rows := comparisonTable(res, jitter)
		if err := emit(os.Stdout, headers, rows); err != nil {
			fail(exitAnalysis, err)
		}
	}
}

// preflight lints the configuration and aborts with exitLint when the
// linter finds errors. Warnings go to stderr and do not block the run.
func preflight(net *afdx.Network, mode afdx.ValidationMode) {
	opts := afdx.DefaultLintOptions()
	opts.Mode = mode
	rep := afdx.Lint(net, opts)
	for _, d := range rep.Diagnostics {
		if d.Severity == afdx.SeverityWarning {
			fmt.Fprintf(os.Stderr, "afdx-bounds: lint: %s\n", d)
		}
	}
	if rep.HasErrors() {
		fmt.Fprintln(os.Stderr, "afdx-bounds: infeasible configuration (use -no-lint to bypass):")
		rep.WriteText(os.Stderr)
		sess.Exit(exitLint)
	}
}
