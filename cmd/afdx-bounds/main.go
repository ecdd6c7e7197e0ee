// Command afdx-bounds computes worst-case end-to-end delay bounds for
// every Virtual Link path of an AFDX configuration, using the Network
// Calculus analysis, the Trajectory approach, or both (keeping the best
// bound per path, the paper's combined method).
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
// -explain takes vl/pathIdx (a bare vl means path 0); a malformed value
// or a path the configuration lacks is a usage error, reported before
// any analysis runs. It prints one decomposition per method that ran,
// each read off the run that computed the table's bound.
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
	"strconv"
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
		method     = flag.String("method", "both", "nc | trajectory | both")
		noGrouping = flag.Bool("no-grouping", false, "disable the grouping (serialization) technique")
		parallelN  = flag.Int("parallel", 0, "analysis worker count (0 = all CPUs, 1 = sequential; bounds are identical either way)")
		relaxed    = flag.Bool("relaxed", false, "relax ARINC 664 contract validation")
		noLint     = flag.Bool("no-lint", false, "skip the lint pre-flight gate")
		csv        = flag.Bool("csv", false, "emit CSV instead of a table")
		backlog    = flag.Bool("backlog", false, "also print per-port backlog bounds (NC)")
		jitter     = flag.Bool("jitter", false, "also print per-path jitter (bound minus idle-network floor)")
		esJitter   = flag.Bool("es-jitter", false, "also print the ARINC 664 end-system output jitter report")
		explain    = flag.String("explain", "", "print one path's bound decomposition for each method run (e.g. v1/0)")
		whatif     = flag.String("whatif", "", "file of what-if delta commands, one per line ('-' = stdin; blank lines and # comments skipped)")
	)
	var deltaCmds multiFlag
	flag.Var(&deltaCmds, "delta", "what-if delta command (repeatable; e.g. 'bag v1 16', 'drop v5'): applied in order after the base analysis")
	obsFlags := cliobs.Register(flag.CommandLine)
	flag.Parse()
	if *config == "" {
		flag.Usage()
		os.Exit(exitUsage)
	}
	var explainPath afdx.PathID
	var err error
	if *explain != "" {
		if explainPath, err = parseExplain(*explain); err != nil {
			log.Print(err)
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
	if *explain != "" {
		if vl := net.VL(explainPath.VL); vl == nil || explainPath.PathIdx >= len(vl.Paths) {
			fail(exitUsage, fmt.Errorf("bad -explain value %q: the configuration has no path %v", *explain, explainPath))
		}
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

	// One run feeds the table, -backlog and -explain. Both methods are
	// one comparison, whose WCNC pass also supplies the trajectory
	// engine's prefix bounds.
	var (
		ncRes *afdx.NCResult
		trRes *afdx.TrajectoryResult
	)
	switch *method {
	case "both":
		cmp, err := afdx.CompareWithCtx(ctx, pg, ncOpts, trOpts)
		if err != nil {
			fail(exitAnalysis, err)
		}
		ncRes, trRes = cmp.NC, cmp.Trajectory
	case "nc":
		if ncRes, err = afdx.AnalyzeNCCtx(ctx, pg, ncOpts); err != nil {
			fail(exitAnalysis, err)
		}
	case "trajectory":
		if trRes, err = afdx.AnalyzeTrajectoryCtx(ctx, pg, trOpts); err != nil {
			fail(exitAnalysis, err)
		}
	default:
		log.Printf("unknown method %q (want nc, trajectory or both)", *method)
		sess.Exit(exitUsage)
	}

	headers, rows, err := boundsTable(pg, ncRes, trRes, *jitter)
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
		runWhatIf(ctx, net, mode, ncOpts, trOpts, deltas, *jitter, emit)
	}

	if *explain != "" {
		// One block per method that ran; the trajectory explanation
		// reuses the run's WCNC result for its prefix bounds.
		if ncRes != nil {
			printExplanation(ncRes.Explain(pg, explainPath))
		}
		if trRes != nil {
			printExplanation(afdx.ExplainTrajectoryCtx(ctx, pg, explainPath, trOpts, ncRes))
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

	if *backlog && ncRes != nil {
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

// parseExplain parses an -explain value: vl/pathIdx with a non-negative
// decimal index, or a bare vl meaning path 0.
func parseExplain(s string) (afdx.PathID, error) {
	vl, idx := s, "0"
	if i := strings.LastIndex(s, "/"); i >= 0 {
		vl, idx = s[:i], s[i+1:]
	}
	n, err := strconv.Atoi(idx)
	if vl == "" || err != nil || n < 0 {
		return afdx.PathID{}, fmt.Errorf("bad -explain value %q (want vl/pathIdx, e.g. v1/0)", s)
	}
	return afdx.PathID{VL: vl, PathIdx: n}, nil
}

// boundsTable renders the per-path bounds table; either result may be
// nil (single-method runs), dropping its columns.
func boundsTable(pg *afdx.PortGraph, nc *afdx.NCResult, tr *afdx.TrajectoryResult, jitter bool) ([]string, [][]string, error) {
	headers := []string{"path"}
	if nc != nil {
		headers = append(headers, "WCNC (us)")
	}
	if tr != nil {
		headers = append(headers, "Trajectory (us)")
	}
	if nc != nil && tr != nil {
		headers = append(headers, "Best (us)", "benefit")
	}
	if jitter {
		headers = append(headers, "jitter (us)")
	}
	paths := pg.Net.AllPaths()
	afdx.SortPathIDs(paths)
	rows := make([][]string, 0, len(paths))
	for _, pid := range paths {
		row := []string{pid.String()}
		best := 0.0
		if nc != nil {
			best = nc.PathDelays[pid]
			row = append(row, report.Us(best))
		}
		if tr != nil {
			if d := tr.PathDelays[pid]; best == 0 || d < best {
				best = d
			}
			row = append(row, report.Us(tr.PathDelays[pid]))
		}
		if nc != nil && tr != nil {
			dn, dt := nc.PathDelays[pid], tr.PathDelays[pid]
			row = append(row, report.Us(best), report.Pct((dn-dt)/dn*100))
		}
		if jitter {
			floor, err := pg.MinPathDelayUs(pid)
			if err != nil {
				return nil, nil, err
			}
			row = append(row, report.Us(best-floor))
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
// the previous configuration, with the bounds table reprinted after
// every delta.
func runWhatIf(ctx context.Context, net *afdx.Network, mode afdx.ValidationMode, ncOpts afdx.NCOptions, trOpts afdx.TrajectoryOptions, deltas []afdx.Delta, jitter bool, emit func(w io.Writer, headers []string, rows [][]string) error) {
	ws, err := afdx.NewIncrementalSession(net, afdx.IncrementalOptions{Mode: mode, NC: ncOpts, Trajectory: trOpts})
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
		headers, rows, err := boundsTable(ws.PortGraph(), res.NC, res.Trajectory, jitter)
		if err != nil {
			fail(exitAnalysis, err)
		}
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
