// Command afdx-bench is the repository's benchmark: one program that
// drives the system the way its two kinds of users do and prints every
// metric by name and unit.
//
//	bash cmd/afdx-bench/run.sh --workload whatif-peek --seed 1 --seconds 25 --trace 0
//
// Users certify a configuration cold, the way afdx-bounds does, or ask
// what-if questions of a warm afdx-serve session. The workloads:
//
//   - certify-cold runs the afdx-bounds pipeline in process — decode,
//     lint, port graph, WCNC, trajectory, combine, JSON encode of the
//     bound list — on one of eight industrial configurations per op. No
//     cache is involved: it is the bypass workload for every
//     incremental or serving change.
//   - whatif-peek sends fresh single-delta /whatif peeks (a BAG doubled
//     or an s_max halved on a seeded VL) to one warm session on the
//     industrial configuration: the designer's read path, dominated by
//     invalidation and trajectory recompute.
//   - whatif-fifo sends the same question stream at ?analysis=FIFO,
//     where the FIFO θ grid dominates; whatif-peek is the same path
//     with FIFO bypassed.
//
// There are three workloads, not more, because the shared 2-vCPU host
// the benchmark is sized for drifts by ±15–30 % over minutes: every
// latency series a workload adds can cross its bound on drift alone,
// and all runs of all workloads must fit one time budget. README.md has
// the measurements.
//
// The served workloads run an in-process serve.Server built from
// serve.DefaultOptions() (the daemon's defaults, the 256-trace ring
// included) with Parallel=2, over real loopback HTTP, from one closed
// loop client with at most two connections. Every workload warms up
// untimed, then runs ops for --seconds (at least 40 ops), one after
// another.
//
// --trace 0 prints the end-to-end metrics: p50_ms and p75_ms of op
// latency, setup_s, alloc_mib_per_op and session_heap_mib. --trace 1
// runs the same traffic with every other block of eight ops traced and
// prints per-layer metrics instead: each layer's self time, the engines'
// Deterministic counters per op, out-of-band timings of the stages a
// served request runs without a span, and GC and tracing overhead. It
// also writes the first traced block as one Chrome trace. README.md has
// the metric catalog, the bounds and the prediction of which layer
// metric moves which end-to-end metric on which workload.
//
// Correctness gate: a preflight checks the paper's Figure 2 bounds; each
// certify-cold op must equal its configuration's sequential CompareWith
// anchor bit for bit; the served workloads record every round and
// replay about a dozen sampled answers through cold engine runs
// (serve.Script.VerifyCold). Any mismatch, failed request, wrong path
// count or session teardown without its "closed" event prints
// "correct": false and exits 1.
//
// The last stdout line is the result object; the line before it labels
// the run (GOMAXPROCS, CPUs, Go version, revision). Progress goes to
// stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"afdx/internal/afdx"
	"afdx/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// minTimedOps keeps a run meaningful on a slow machine: the timed phase
// ends after --seconds, but never before this many ops, so p75_ms has
// at least ten samples above it.
const minTimedOps = 40

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("afdx-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "certify-cold | whatif-peek | whatif-fifo")
	seed := fs.Int64("seed", 1, "traffic seed: peek question order, certify order")
	seconds := fs.Float64("seconds", 25, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace")
	traceFile := fs.String("trace-file", "", "Chrome trace of a traced run (default .bench_build/trace-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *workloadName == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: afdx-bench --workload <name> [--seed n] [--seconds s] [--trace 0|1]")
		return 2
	}
	o := options{
		workload: *workloadName,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		minOps:   minTimedOps,
		traced:   *trace == 1,
		scale:    industrialScale(),
		progress: stderr,
	}
	if o.traced {
		o.traceFile = *traceFile
		if o.traceFile == "" {
			o.traceFile = filepath.Join(".bench_build", "trace-"+o.workload+".json")
			if err := os.MkdirAll(filepath.Dir(o.traceFile), 0o755); err != nil {
				fmt.Fprintln(stderr, "afdx-bench:", err)
				return 1
			}
		}
	}
	printJSON(stdout, map[string]any{"run": labels(o)})
	res, err := measure(context.Background(), o)
	if err != nil {
		fmt.Fprintln(stderr, "afdx-bench:", err)
		return 1
	}
	printJSON(stdout, res)
	if !res.Correct {
		fmt.Fprintf(stderr, "afdx-bench: %s: outputs failed the correctness gate\n", o.workload)
		return 1
	}
	return 0
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs of numbers and strings reach here
	}
	fmt.Fprintln(w, string(b))
}

// labels describes where a run's numbers come from. A run with fewer
// than two schedulable CPUs cannot overlap the two engine workers and
// is marked cpu_limited.
func labels(o options) map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds.Seconds(),
		"traced":      o.traced,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"num_cpu":     runtime.NumCPU(),
		"cpu_limited": runtime.GOMAXPROCS(0) < workers,
		"go_version":  runtime.Version(),
		"revision":    rev,
		"transport":   "loopback",
		"workers":     workers,
	}
}

// preflight checks the paper's Figure 2 numbers for v1/0 — trajectory
// 248.00 µs, network calculus 293.06 µs — before anything is timed: an
// engine that misses them makes every later number meaningless.
func preflight() error {
	pg, err := afdx.BuildPortGraph(afdx.Figure2Config(), afdx.Strict)
	if err != nil {
		return err
	}
	cmp, err := core.Compare(pg)
	if err != nil {
		return err
	}
	pc := cmp.PerPath[afdx.PathID{VL: "v1", PathIdx: 0}]
	if got := fmt.Sprintf("%.2f/%.2f", pc.TrajectoryUs, pc.NCUs); got != "248.00/293.06" {
		return fmt.Errorf("preflight: Figure 2 v1/0 trajectory/NC = %s µs, want 248.00/293.06", got)
	}
	return nil
}
