// Command afdx-benchjson converts `go test -bench` output on stdin into
// a small JSON report, pairing the industrial engine benchmarks'
// Seq/Par variants (parallel speedup) and the trajectory hot-path
// benchmarks' Cold/Fast variants (reference engine vs the flat
// index-based fast path). Repeated samples of one benchmark (`-count`)
// pair by their fastest run.
//
// Usage:
//
//	go test -bench 'Industrial(Seq|Par)$' -run '^$' . | afdx-benchjson -o BENCH_PR2.json
//	go test -bench ... . | afdx-benchjson -obs -o BENCH_PR4.json
//
// -o names the output file ("-", the default, is stdout) and is
// preferred over shell redirection: the file is only written after the
// report assembles, so a failed run cannot truncate a previous report.
//
// -obs additionally runs both analysis engines on the industrial
// configuration twice — plain and with a metrics registry attached —
// and embeds the per-engine counter breakdown plus the measured
// instrumentation overhead (the observability layer's budget is <= 5%).
//
// The report records the runner's CPU budget (GOMAXPROCS) alongside
// each ns/op so speedups quoted from a single-core container are not
// mistaken for the engines' multi-core scaling.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"afdx"
	"afdx/internal/obs/cliobs"
)

// Row is one benchmark result line.
type Row struct {
	Name string  `json:"name"`
	Iter int     `json:"iterations"`
	NsOp float64 `json:"ns_per_op"`
}

// Pair is a Seq/Par benchmark couple with its speedup.
type Pair struct {
	Base       string  `json:"benchmark"`
	SeqNsOp    float64 `json:"seq_ns_per_op"`
	ParNsOp    float64 `json:"par_ns_per_op"`
	Speedup    float64 `json:"speedup"`
	GoMaxProcs int     `json:"gomaxprocs"`
}

// FastPair is a Cold/Fast benchmark couple: the same workload run by
// the reference (pre-flattening) trajectory engine vs the flat
// index-based hot path. The two are bit-identical by contract, so the
// speedup is pure hot-loop wall time saved.
type FastPair struct {
	Base       string  `json:"benchmark"`
	ColdNsOp   float64 `json:"cold_ns_per_op"`
	FastNsOp   float64 `json:"fast_ns_per_op"`
	Speedup    float64 `json:"speedup"`
	GoMaxProcs int     `json:"gomaxprocs"`
}

// ServedPair is a Cold/Served benchmark couple: the same what-if
// question answered by a cold CLI-style run (full analysis of the
// mutated configuration) vs a warm afdx-serve session over HTTP
// (wire round-trip included). The served-conformance tier pins both
// bit-identical, so the speedup is the interactive-loop latency the
// daemon saves.
type ServedPair struct {
	Base       string  `json:"benchmark"`
	ColdNsOp   float64 `json:"cold_ns_per_op"`
	ServedNsOp float64 `json:"served_ns_per_op"`
	Speedup    float64 `json:"speedup"`
	GoMaxProcs int     `json:"gomaxprocs"`
}

// ObsPair is an ObsOff/ObsOn benchmark couple: the same served
// workload with the operational-observability layer disabled vs fully
// enabled (request logging, trace retention, provenance). The bounds
// are bit-identical by contract, so the overhead is the layer's whole
// cost; the budget is <= 5%, matching the engine instrumentation bar.
type ObsPair struct {
	Base        string  `json:"benchmark"`
	OffNsOp     float64 `json:"off_ns_per_op"`
	OnNsOp      float64 `json:"on_ns_per_op"`
	OverheadPct float64 `json:"overhead_pct"`
	GoMaxProcs  int     `json:"gomaxprocs"`
}

// EngineObs is one engine's -obs measurement on the industrial
// configuration: wall time plain vs instrumented, the relative
// overhead, and the full counter breakdown of the instrumented run.
type EngineObs struct {
	Engine string `json:"engine"`
	// PlainSec / InstrumentedSec are best-of-N wall times without and
	// with a metrics registry on the context.
	PlainSec        float64 `json:"plain_sec"`
	InstrumentedSec float64 `json:"instrumented_sec"`
	// OverheadPct is the median over the interleaved rounds of
	// (instrumented/plain - 1) * 100. Noisy around zero on fast
	// engines; the budget is <= 5%.
	OverheadPct float64          `json:"overhead_pct"`
	Counters    map[string]int64 `json:"counters"`
}

// ObsReport is the -obs section of the report.
type ObsReport struct {
	Seed    int64       `json:"seed"`
	Engines []EngineObs `json:"engines"`
}

// Report is the emitted JSON document.
type Report struct {
	GoMaxProcs int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	GoVersion  string       `json:"go_version"`
	Rows       []Row        `json:"benchmarks"`
	Pairs      []Pair       `json:"seq_par_pairs,omitempty"`
	FastPairs  []FastPair   `json:"cold_fast_pairs,omitempty"`
	ServedPrs  []ServedPair `json:"cold_served_pairs,omitempty"`
	ObsPairs   []ObsPair    `json:"obs_off_on_pairs,omitempty"`
	Obs        *ObsReport   `json:"observability,omitempty"`
	Note       string       `json:"note"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("afdx-benchjson: ")
	var (
		out  = flag.String("o", "-", "output file (- = stdout)")
		obsM = flag.Bool("obs", false, "embed per-engine metric breakdowns and the instrumentation overhead (runs the industrial engines)")
		seed = flag.Int64("seed", 1, "industrial configuration seed for -obs")
	)
	obsFlags := cliobs.Register(flag.CommandLine)
	flag.Parse()
	var err error
	if sess, err = obsFlags.Start(); err != nil {
		fail(err)
	}
	rows, err := parse(os.Stdin)
	if err != nil {
		fail(err)
	}
	if len(rows) == 0 && !*obsM {
		fail(fmt.Errorf("no benchmark lines on stdin (pipe `go test -bench ...` output)"))
	}
	rep := Report{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Rows:       rows,
		Pairs:      pair(rows),
		FastPairs:  pairFast(rows),
		ServedPrs:  pairServed(rows),
		ObsPairs:   pairObs(rows),
		Note: "Seq = -parallel 1, Par = -parallel 0 (all CPUs). The engines' " +
			"bit-reproducibility contract makes both variants compute identical " +
			"bounds; speedup below ~1.5x on a multi-core runner is a regression, " +
			"speedup ~1.0x is expected when gomaxprocs is 1.",
	}
	if *obsM {
		o, err := measureObs(*seed)
		if err != nil {
			fail(err)
		}
		rep.Obs = o
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fail(err)
	}
	sess.Exit(0)
}

var sess *cliobs.Session

// fail matches log.Fatal's exit code while still flushing any
// requested observability artifacts.
func fail(err error) {
	log.Print(err)
	sess.Exit(1)
}

// measureObs times both engines on the industrial configuration, plain
// and instrumented, and collects each instrumented run's counters.
func measureObs(seed int64) (*ObsReport, error) {
	net, err := afdx.Generate(afdx.DefaultGeneratorSpec(seed))
	if err != nil {
		return nil, fmt.Errorf("-obs: generate: %w", err)
	}
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		return nil, fmt.Errorf("-obs: port graph: %w", err)
	}
	rep := &ObsReport{Seed: seed}
	engines := []struct {
		name string
		run  func(reg *afdx.ObsRegistry) error
	}{
		{"netcalc", func(reg *afdx.ObsRegistry) error {
			ctx := afdx.WithObservation(context.Background(), reg, nil)
			_, err := afdx.AnalyzeNCCtx(ctx, pg, afdx.DefaultNCOptions())
			return err
		}},
		{"trajectory", func(reg *afdx.ObsRegistry) error {
			ctx := afdx.WithObservation(context.Background(), reg, nil)
			_, err := afdx.AnalyzeTrajectoryCtx(ctx, pg, afdx.DefaultTrajectoryOptions())
			return err
		}},
	}
	const rounds = 5 // best-of-5, interleaved, damps scheduler noise
	for _, e := range engines {
		eo := EngineObs{Engine: e.name, Counters: map[string]int64{}}
		// Calibrate: fast engines are timed over enough iterations that
		// each sample spans ~1s, so the overhead figure measures
		// instrumentation, not scheduler noise on a hot cache.
		start := time.Now()
		if err := e.run(nil); err != nil {
			return nil, fmt.Errorf("-obs: %s run failed: %w", e.name, err)
		}
		iters := 1
		if d := time.Since(start); d < time.Second && d > 0 {
			iters = int(time.Second/d) + 1
		}
		// Plain and instrumented samples interleave within a round, so
		// each round's ratio compares two adjacent-in-time measurements
		// under the same machine load; the median ratio over the rounds
		// then discards the noise spikes that plague a shared runner.
		// Snapshot collection stays outside the timed region: the
		// overhead figure measures the engine running with a registry
		// attached, not the one-time reporting cost.
		plain, instr := -1.0, -1.0
		ratios := make([]float64, 0, rounds)
		for i := 0; i < rounds; i++ {
			p := timeOnce(iters, func() error { return e.run(nil) })
			q := timeOnce(iters, func() error { return e.run(afdx.NewObsRegistry()) })
			if p < 0 || q < 0 {
				return nil, fmt.Errorf("-obs: %s run failed", e.name)
			}
			ratios = append(ratios, q/p)
			if plain < 0 || p < plain {
				plain = p
			}
			if instr < 0 || q < instr {
				instr = q
			}
		}
		sort.Float64s(ratios)
		reg := afdx.NewObsRegistry()
		if err := e.run(reg); err != nil {
			return nil, fmt.Errorf("-obs: %s run failed: %w", e.name, err)
		}
		for _, c := range reg.Snapshot().Counters {
			eo.Counters[c.Name] = c.Value
		}
		eo.PlainSec, eo.InstrumentedSec = plain, instr
		eo.OverheadPct = (ratios[len(ratios)/2] - 1) * 100
		rep.Engines = append(rep.Engines, eo)
	}
	return rep, nil
}

// timeOnce runs fn iters times and returns the per-call wall time in
// seconds, or -1 when fn fails.
func timeOnce(iters int, fn func() error) float64 {
	start := time.Now()
	for j := 0; j < iters; j++ {
		if err := fn(); err != nil {
			return -1
		}
	}
	return time.Since(start).Seconds() / float64(iters)
}

// parse extracts "BenchmarkName-8  N  12345 ns/op" lines.
func parse(f *os.File) ([]Row, error) {
	var rows []Row
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		i := -1
		for j, f := range fields {
			if f == "ns/op" {
				i = j
				break
			}
		}
		if i < 2 {
			continue
		}
		iter, err := strconv.Atoi(fields[i-2])
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(fields[i-1], 64)
		if err != nil {
			continue
		}
		name := fields[0]
		if j := strings.LastIndex(name, "-"); j > 0 {
			name = name[:j] // strip the -GOMAXPROCS suffix
		}
		rows = append(rows, Row{Name: name, Iter: iter, NsOp: ns})
	}
	return rows, sc.Err()
}

// bestByName indexes rows by benchmark name, keeping the minimum
// ns/op when `-count` repeated a benchmark: noise on a shared runner
// is strictly additive, so the fastest sample is the best estimate.
func bestByName(rows []Row) map[string]float64 {
	byName := map[string]float64{}
	for _, r := range rows {
		if prev, ok := byName[r.Name]; !ok || r.NsOp < prev {
			byName[r.Name] = r.NsOp
		}
	}
	return byName
}

// pair matches FooSeq/FooPar rows and computes speedups.
func pair(rows []Row) []Pair {
	byName := bestByName(rows)
	var pairs []Pair
	for name, seq := range byName {
		base, ok := strings.CutSuffix(name, "Seq")
		if !ok {
			continue
		}
		par, ok := byName[base+"Par"]
		if !ok || par == 0 {
			continue
		}
		pairs = append(pairs, Pair{
			Base: base, SeqNsOp: seq, ParNsOp: par,
			Speedup:    seq / par,
			GoMaxProcs: runtime.GOMAXPROCS(0),
		})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Base < pairs[j].Base })
	return pairs
}

// pairFast matches FooCold/FooFast rows and computes the flat hot-path
// speedups over the reference engine.
func pairFast(rows []Row) []FastPair {
	byName := bestByName(rows)
	var pairs []FastPair
	for name, cold := range byName {
		base, ok := strings.CutSuffix(name, "Cold")
		if !ok {
			continue
		}
		fast, ok := byName[base+"Fast"]
		if !ok || fast == 0 {
			continue
		}
		pairs = append(pairs, FastPair{
			Base: base, ColdNsOp: cold, FastNsOp: fast,
			Speedup:    cold / fast,
			GoMaxProcs: runtime.GOMAXPROCS(0),
		})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Base < pairs[j].Base })
	return pairs
}

// pairServed matches FooCold/FooServed rows and computes the warm
// daemon's speedup over a cold CLI-style run.
func pairServed(rows []Row) []ServedPair {
	byName := bestByName(rows)
	var pairs []ServedPair
	for name, cold := range byName {
		base, ok := strings.CutSuffix(name, "Cold")
		if !ok {
			continue
		}
		served, ok := byName[base+"Served"]
		if !ok || served == 0 {
			continue
		}
		pairs = append(pairs, ServedPair{
			Base: base, ColdNsOp: cold, ServedNsOp: served,
			Speedup:    cold / served,
			GoMaxProcs: runtime.GOMAXPROCS(0),
		})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Base < pairs[j].Base })
	return pairs
}

// pairObs matches FooObsOff/FooObsOn rows and computes the
// operational-observability overhead of the served stack.
func pairObs(rows []Row) []ObsPair {
	byName := bestByName(rows)
	var pairs []ObsPair
	for name, off := range byName {
		base, ok := strings.CutSuffix(name, "ObsOff")
		if !ok || off == 0 {
			continue
		}
		on, ok := byName[base+"ObsOn"]
		if !ok {
			continue
		}
		pairs = append(pairs, ObsPair{
			Base: base, OffNsOp: off, OnNsOp: on,
			OverheadPct: (on/off - 1) * 100,
			GoMaxProcs:  runtime.GOMAXPROCS(0),
		})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Base < pairs[j].Base })
	return pairs
}
