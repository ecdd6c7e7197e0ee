package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"afdx/internal/obs"
)

// blockOps is the traced-run interleave: ops alternate between blocks of
// this many traced and untraced ops (one full certify cycle per block),
// so the two halves see the same input mix and trace.overhead_pct
// compares like with like. The first block is also the window the
// per-op Deterministic counts are averaged over, which makes those
// counts identical from run to run whatever the op total.
const blockOps = 8

// workload is one traffic mix driven against the system.
type workload interface {
	// setup builds the inputs and the system under test, runs the
	// untimed warm-up ops, and returns each set-up's duration.
	setup(ctx context.Context) ([]time.Duration, error)
	// op runs the next timed op.
	op(ctx context.Context, traced bool) opResult
	// registry is where the engines of a traced op count (nil when
	// nothing counts).
	registry() *obs.Registry
	// finish measures the state heap and checks the outputs once the
	// timed phase is over; it returns the heap share in MiB and the
	// number of failed checks.
	finish(ctx context.Context) (heapMiB float64, failures int, err error)
	// close stops everything the workload started and waits for it.
	close()
}

// opResult is one timed op as the loop sees it.
type opResult struct {
	latency time.Duration
	failed  bool
	// Traced ops only: per-layer values keyed by metric name — the
	// op's own layer shares, and stages timed out of band that the
	// shares already contain — the sum of the shares that must add up
	// to the latency (ms), and the op's spans on an op-relative
	// timeline (µs).
	layers    map[string]float64
	outOfBand map[string]float64
	inSum     float64
	events    []obs.TraceEvent
}

// options is one benchmark run.
type options struct {
	workload  string
	seed      int64
	seconds   time.Duration
	minOps    int // run at least this many timed ops, however long they take
	maxOps    int // 0 = no cap; the tests use it to stay small
	traced    bool
	traceFile string
	scale     scale
	progress  io.Writer
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newWorkload maps a workload name to its traffic mix.
func newWorkload(name string, sc scale, seed int64) (workload, error) {
	switch name {
	case "certify-cold":
		return &certify{scale: sc, seed: seed}, nil
	case "whatif-peek":
		return newPeeks(sc, seed, ""), nil
	case "whatif-fifo":
		return newPeeks(sc, seed, "FIFO"), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want certify-cold, whatif-peek or whatif-fifo)", name)
}

// measure runs one workload end to end and assembles its metrics.
func measure(ctx context.Context, o options) (*result, error) {
	if err := preflight(); err != nil {
		return nil, err
	}
	w, err := newWorkload(o.workload, o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	defer w.close()

	fmt.Fprintf(o.progress, "afdx-bench: %s: setting up\n", o.workload)
	setups, err := w.setup(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", o.workload, err)
	}
	fmt.Fprintf(o.progress, "afdx-bench: %s: measuring for %v\n", o.workload, o.seconds)
	lp := timedLoop(ctx, w, o)
	fmt.Fprintf(o.progress, "afdx-bench: %s: %d ops; checking outputs\n", o.workload, len(lp.lat))
	heap, failures, err := w.finish(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}

	res := &result{
		Correct:   failures == 0 && lp.failed == 0,
		Attempted: len(lp.lat),
		Failed:    lp.failed,
		Metrics:   map[string]metric{},
	}
	if !o.traced {
		ops := float64(len(lp.lat))
		res.Metrics["p50_ms"] = metric{quantile(lp.lat, 0.5), "ms"}
		res.Metrics["p75_ms"] = metric{quantile(lp.lat, 0.75), "ms"}
		res.Metrics["setup_s"] = metric{quantile(durationsMs(setups), 0.5) / 1e3, "s"}
		res.Metrics["alloc_mib_per_op"] = metric{float64(lp.allocBytes) / (1 << 20) / ops, "MiB"}
		res.Metrics["session_heap_mib"] = metric{heap, "MiB"}
		return res, nil
	}
	layers, sumErr, err := lp.layerMetrics()
	if err != nil {
		return nil, err
	}
	if sumErr > 5 {
		fmt.Fprintf(o.progress, "afdx-bench: layer shares miss the traced latency by %.1f%% (> 5%%)\n", sumErr)
		res.Correct = false
	}
	res.Metrics = layers
	printLayerTable(o.progress, o.workload, mean(lp.tracedLat), layers, lp.outOfBand)
	if o.traceFile != "" {
		if err := writeTrace(o.traceFile, lp.events); err != nil {
			return nil, err
		}
		fmt.Fprintf(o.progress, "afdx-bench: wrote Chrome trace %s\n", o.traceFile)
	}
	return res, nil
}

// loop is what the timed phase collected.
type loop struct {
	lat        []float64 // ms, every timed op
	tracedLat  []float64
	plainLat   []float64
	failed     int
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64

	// Traced runs only.
	layerSum  map[string]float64 // per-layer metric totals over traced ops
	outOfBand map[string]bool    // which of them were timed out of band
	inSum     float64            // total of the ops' layer shares, ms
	counts    map[string]int64   // Deterministic counter totals over the count window
	window    int                // ops in the count window
	snap0     *obs.Snapshot      // registry at the start of the timed phase
	snap1     *obs.Snapshot      // and at its end
	events    []obs.TraceEvent   // merged Chrome trace of the first traced block
}

// countedCounters are the Deterministic counters the traced run reports
// per op.
var countedCounters = []string{
	"netcalc.flow_envelopes",
	"netcalc.ports_analyzed",
	"netcalc.incr_port_hits",
	"netcalc.incr_port_recomputes",
	"trajectory.incr_path_hits",
	"trajectory.incr_path_recomputes",
	"trajectory.candidate_offsets",
	"trajectory.busy_period_iterations",
	"parallel.tasks",
}

// timedLoop runs ops for the configured time (at least minOps, at most
// maxOps) in one closed loop: the next op starts when the previous one
// has returned.
func timedLoop(ctx context.Context, w workload, o options) *loop {
	lp := &loop{layerSum: map[string]float64{}, outOfBand: map[string]bool{}, counts: map[string]int64{}}
	reg := w.registry()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if o.traced {
		lp.snap0 = reg.Snapshot()
	}
	start := time.Now()
	for i := 0; o.maxOps == 0 || i < o.maxOps; i++ {
		if i >= o.minOps && time.Since(start) >= o.seconds {
			break
		}
		traced := o.traced && (i/blockOps)%2 == 0
		var before *obs.Snapshot
		if traced && i < blockOps {
			before = reg.Snapshot()
		}
		offset := time.Since(start).Microseconds()
		r := w.op(ctx, traced)
		ms := float64(r.latency) / 1e6
		lp.lat = append(lp.lat, ms)
		if r.failed {
			lp.failed++
		}
		if !o.traced {
			continue
		}
		if !traced {
			lp.plainLat = append(lp.plainLat, ms)
			continue
		}
		lp.tracedLat = append(lp.tracedLat, ms)
		for k, v := range r.layers {
			lp.layerSum[k] += v
		}
		for k, v := range r.outOfBand {
			lp.layerSum[k] += v
			lp.outOfBand[k] = true
		}
		lp.inSum += r.inSum
		if i < blockOps {
			after := reg.Snapshot()
			for _, name := range countedCounters {
				lp.counts[name] += after.Counter(name) - before.Counter(name)
			}
			lp.window++
			lp.events = append(lp.events, shiftEvents(r.events, offset)...)
		}
	}
	runtime.ReadMemStats(&m1)
	if o.traced {
		lp.snap1 = reg.Snapshot()
	}
	lp.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	lp.gcCycles = m1.NumGC - m0.NumGC
	lp.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return lp
}

// perLayer lists the traced run's metrics: name, unit. Values a
// workload's ops never produce (a cold run has no transport; a served
// peek decodes no configuration) print as 0.
var perLayer = []struct{ name, unit string }{
	{"afdx.decode_ms", "ms"},
	{"lint.ms", "ms"},
	{"afdx.clone_ms", "ms"},
	{"afdx.build_ms", "ms"},
	{"incremental.apply_ms", "ms"},
	{"netcalc.self_ms", "ms"},
	{"netcalc.flow_envelopes", "count"},
	{"netcalc.ports_analyzed", "count"},
	{"netcalc.ports_recomputed", "count"},
	{"netcalc.port_hit_ratio", "ratio"},
	{"trajectory.self_ms", "ms"},
	{"trajectory.paths_recomputed", "count"},
	{"trajectory.path_hit_ratio", "ratio"},
	{"trajectory.candidate_offsets", "count"},
	{"trajectory.busy_period_iterations", "count"},
	{"core.combine_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.resp_kib", "KiB"},
	{"serve.encode_ms", "ms"},
	{"parallel.tasks", "count"},
	{"parallel.pool_occupancy_p50", "count"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.sum_error_pct", "%"},
}

// layerMetrics turns a traced loop into the per-layer metrics, plus the
// percentage by which the layer shares miss the traced ops' latency.
func (lp *loop) layerMetrics() (map[string]metric, float64, error) {
	n := float64(len(lp.tracedLat))
	if n == 0 {
		return nil, 0, fmt.Errorf("traced run recorded no traced ops")
	}
	vals := map[string]float64{}
	for k, v := range lp.layerSum {
		vals[k] = v / n
	}
	if lp.window > 0 {
		win := float64(lp.window)
		c := lp.counts
		vals["netcalc.flow_envelopes"] = float64(c["netcalc.flow_envelopes"]) / win
		vals["netcalc.ports_analyzed"] = float64(c["netcalc.ports_analyzed"]) / win
		vals["netcalc.ports_recomputed"] = float64(c["netcalc.incr_port_recomputes"]) / win
		vals["netcalc.port_hit_ratio"] = ratio(c["netcalc.incr_port_hits"], c["netcalc.incr_port_recomputes"])
		vals["trajectory.paths_recomputed"] = float64(c["trajectory.incr_path_recomputes"]) / win
		vals["trajectory.path_hit_ratio"] = ratio(c["trajectory.incr_path_hits"], c["trajectory.incr_path_recomputes"])
		vals["trajectory.candidate_offsets"] = float64(c["trajectory.candidate_offsets"]) / win
		vals["trajectory.busy_period_iterations"] = float64(c["trajectory.busy_period_iterations"]) / win
		vals["parallel.tasks"] = float64(c["parallel.tasks"]) / win
	}
	vals["parallel.pool_occupancy_p50"] = float64(histDelta(lp.snap0, lp.snap1, "parallel.pool_occupancy").Quantile(0.5))
	ops := float64(len(lp.lat))
	vals["runtime.gc_cycles_per_op"] = float64(lp.gcCycles) / ops
	vals["runtime.gc_pause_ms_per_op"] = float64(lp.gcPauseNs) / 1e6 / ops
	if len(lp.plainLat) > 0 {
		vals["trace.overhead_pct"] = (quantile(lp.tracedLat, 0.5)/quantile(lp.plainLat, 0.5) - 1) * 100
	}
	meanLat := mean(lp.tracedLat)
	sumErr := math.Abs(lp.inSum/n-meanLat) / meanLat * 100
	vals["trace.sum_error_pct"] = sumErr

	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out, sumErr, nil
}

// histDelta returns the named histogram's observations between two
// snapshots.
func histDelta(a, b *obs.Snapshot, name string) obs.HistogramValue {
	find := func(s *obs.Snapshot) obs.HistogramValue {
		for _, h := range s.Histograms {
			if h.Name == name {
				return h
			}
		}
		return obs.HistogramValue{}
	}
	ha, hb := find(a), find(b)
	out := obs.HistogramValue{Name: name, Count: hb.Count - ha.Count, Sum: hb.Sum - ha.Sum, Max: hb.Max}
	prev := map[int64]int64{}
	for _, bk := range ha.Buckets {
		prev[bk.Le] = bk.Count
	}
	for _, bk := range hb.Buckets {
		if d := bk.Count - prev[bk.Le]; d > 0 {
			bk.Count = d
			out.Buckets = append(out.Buckets, bk)
		}
	}
	return out
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// liveHeap returns the heap in use after a full collection, in bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// heapMiB is the difference of two liveHeap readings in MiB.
func heapMiB(with, without uint64) float64 {
	return (float64(with) - float64(without)) / (1 << 20)
}

// printLayerTable renders the traced run's time breakdown for people:
// the layer shares of a traced op, which add up to its latency, then
// the stages timed out of band.
func printLayerTable(w io.Writer, workload string, latency float64, layers map[string]metric, outOfBand map[string]bool) {
	fmt.Fprintf(w, "afdx-bench: %s: mean traced op %.3f ms, by layer\n", workload, latency)
	var oob []string
	for _, m := range perLayer {
		v := layers[m.name].Value
		switch {
		case m.unit != "ms" || v == 0 || m.name == "serve.handler_ms" || m.name == "runtime.gc_pause_ms_per_op":
		case outOfBand[m.name]:
			oob = append(oob, m.name)
		default:
			fmt.Fprintf(w, "  %-22s %9.3f ms %5.1f%%\n", m.name, v, v/latency*100)
		}
	}
	if len(oob) > 0 {
		fmt.Fprintf(w, "  timed out of band (inside serve.self_ms):\n")
		for _, name := range oob {
			fmt.Fprintf(w, "    %-20s %9.3f ms\n", name, layers[name].Value)
		}
	}
}
