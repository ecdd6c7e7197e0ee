// Command afdx-sim runs the discrete-event AFDX simulator on a
// configuration and reports observed end-to-end delays per VL path,
// optionally against the analytic bounds.
//
// Usage:
//
//	afdx-sim -config net.json -duration-ms 1280 -seed 3
//	afdx-sim -config net.json -compare          # also print both bounds
//	afdx-sim -config net.json -policing -policing-rate 0.5
//
// The configuration is linted before the simulation starts; lint errors
// abort the run with exit code 3 (bypass with -no-lint), and each
// warning goes to stderr as "afdx-sim: lint: <diagnostic>". A negative
// or non-finite -jitter-us, a non-positive or non-finite
// -policing-rate, or a -duration-ms the simulator cannot run (zero,
// negative, NaN, or a horizon beyond int64 nanoseconds such as Inf or
// 1e300) is a usage error (exit 2), reported before the configuration
// is read. So is a -histogram value that is not vl/pathIdx (a bare vl
// means path 0) or names a path the configuration lacks; it is
// reported before the simulation runs.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sort"

	"afdx"
	"afdx/internal/obs/cliobs"
	"afdx/internal/report"
	"afdx/internal/stats"
)

// sess flushes the observability artifacts on every exit path.
var sess *cliobs.Session

// fatal prints the error and exits through the observability session.
func fatal(v ...any) {
	log.Print(v...)
	sess.Exit(1)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("afdx-sim: ")
	var (
		config     = flag.String("config", "", "network configuration JSON (required)")
		durationMs = flag.Float64("duration-ms", 1280, "simulated horizon in milliseconds")
		seed       = flag.Int64("seed", 1, "seed for offsets, jitter and frame sizes")
		jitterUs   = flag.Float64("jitter-us", 0, "per-frame emission jitter (enables sporadic sources)")
		randomSz   = flag.Bool("random-sizes", false, "draw frame sizes uniformly in [s_min, s_max]")
		policing   = flag.Bool("policing", false, "enable per-VL ingress policing")
		polRate    = flag.Float64("policing-rate", 1, "policer rate factor (<1 models a misbehaving source)")
		compare    = flag.Bool("compare", false, "also print the analytic bounds per path")
		parallelN  = flag.Int("parallel", 0, "analysis worker count for -compare (0 = all CPUs, 1 = sequential)")
		relaxed    = flag.Bool("relaxed", false, "relax ARINC 664 contract validation")
		noLint     = flag.Bool("no-lint", false, "skip the lint pre-flight gate")
		csv        = flag.Bool("csv", false, "emit CSV instead of a table")
		histogram  = flag.String("histogram", "", "print the delay distribution of one path (e.g. v1/0)")
	)
	obsFlags := cliobs.Register(flag.CommandLine)
	flag.Parse()
	if *config == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *parallelN < 0 {
		log.Printf("-parallel must be non-negative, got %d", *parallelN)
		os.Exit(2)
	}
	if !(*jitterUs >= 0) || math.IsInf(*jitterUs, 1) {
		log.Printf("-jitter-us must be a finite non-negative number, got %v", *jitterUs)
		os.Exit(2)
	}
	if !(*polRate > 0) || math.IsInf(*polRate, 1) {
		log.Printf("-policing-rate must be a finite positive number, got %v", *polRate)
		os.Exit(2)
	}
	cfg := afdx.DefaultSimConfig(*seed)
	cfg.DurationUs = *durationMs * 1000
	cfg.RandomSizes = *randomSz
	cfg.Policing = *policing
	cfg.PolicingRateFactor = *polRate
	cfg.RecordFrames = *histogram != ""
	if *jitterUs > 0 {
		cfg.Model = afdx.PeriodicJitterSources
		cfg.JitterUs = *jitterUs
	}
	// The checks above are stricter than the simulator's for the jitter
	// and policer values, so what Check still rejects is the horizon.
	if err := cfg.Check(); err != nil {
		log.Printf("bad -duration-ms %v: %v", *durationMs, err)
		os.Exit(2)
	}
	var histPath afdx.PathID
	var err error
	if *histogram != "" {
		if histPath, err = afdx.ParsePathArg(*histogram); err != nil {
			log.Printf("bad -histogram value: %v", err)
			os.Exit(2)
		}
	}
	if sess, err = obsFlags.Start(); err != nil {
		log.Print(err)
		os.Exit(2)
	}
	ctx := sess.Context()
	mode := afdx.Strict
	if *relaxed {
		mode = afdx.Relaxed
	}
	net, err := afdx.LoadJSON(*config, mode)
	if err != nil {
		fatal(err)
	}
	if *histogram != "" && !net.HasPath(histPath) {
		log.Printf("bad -histogram value %q: the configuration has no path %v", *histogram, histPath)
		sess.Exit(2)
	}
	if !*noLint {
		opts := afdx.DefaultLintOptions()
		opts.Mode = mode
		rep := afdx.Lint(net, opts)
		for _, d := range rep.Diagnostics {
			if d.Severity == afdx.SeverityWarning {
				fmt.Fprintf(os.Stderr, "afdx-sim: lint: %s\n", d)
			}
		}
		if rep.HasErrors() {
			fmt.Fprintln(os.Stderr, "afdx-sim: infeasible configuration (use -no-lint to bypass):")
			rep.WriteText(os.Stderr)
			sess.Exit(3)
		}
	}
	pg, err := afdx.BuildPortGraph(net, mode)
	if err != nil {
		fatal(err)
	}
	res, err := afdx.SimulateCtx(ctx, pg, cfg)
	if err != nil {
		fatal(err)
	}

	var cmp *afdx.Comparison
	if *compare {
		ncOpts := afdx.DefaultNCOptions()
		trOpts := afdx.DefaultTrajectoryOptions()
		ncOpts.Parallel = *parallelN
		trOpts.Parallel = *parallelN
		cmp, err = afdx.CompareWithCtx(ctx, pg, ncOpts, trOpts)
		if err != nil {
			fatal(err)
		}
	}

	paths := net.AllPaths()
	sort.Slice(paths, func(i, j int) bool {
		if paths[i].VL != paths[j].VL {
			return paths[i].VL < paths[j].VL
		}
		return paths[i].PathIdx < paths[j].PathIdx
	})
	headers := []string{"path", "frames", "min (us)", "mean (us)", "max (us)"}
	if cmp != nil {
		headers = append(headers, "WCNC (us)", "Trajectory (us)")
	}
	rows := make([][]string, 0, len(paths))
	for _, pid := range paths {
		st := res.Paths[pid]
		row := []string{
			pid.String(), report.Int(st.Frames),
			report.Us(st.MinDelayUs), report.Us(st.MeanDelayUs()), report.Us(st.MaxDelayUs),
		}
		if cmp != nil {
			pc := cmp.PerPath[pid]
			row = append(row, report.Us(pc.NCUs), report.Us(pc.TrajectoryUs))
		}
		rows = append(rows, row)
	}
	emit := report.Table
	if *csv {
		emit = report.CSV
	}
	if err := emit(os.Stdout, headers, rows); err != nil {
		fatal(err)
	}
	fmt.Printf("emitted %d frames, dropped %d by policing, global max delay %.2f us\n",
		res.FramesEmitted, res.FramesDropped, res.MaxDelayUs())

	if *histogram != "" {
		delays := res.FrameDelays[histPath]
		if len(delays) == 0 {
			fatal(fmt.Sprintf("no frames observed on path %v", histPath))
		}
		fmt.Printf("\ndelay distribution of %v (%s):\n", histPath, stats.Summarize(delays))
		fmt.Print(stats.RenderHistogram(stats.Histogram(delays, 12), 40))
	}
	sess.Exit(0)
}
