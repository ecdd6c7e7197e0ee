// Package obs is the zero-dependency observability layer: lock-cheap
// engine metrics (atomic counters and power-of-two histograms gathered
// in a Registry and snapshotted deterministically) and hierarchical
// span tracing (campaign → config → engine, one span per engine run)
// emitted as a Chrome-trace-viewer JSON event log or a human text tree.
//
// Observation is strictly read-only with respect to the analysis: no
// engine decision may depend on a metric or span, so instrumented and
// uninstrumented runs compute bit-identical results (pinned by
// determinism tests at the repository root). Everything is nil-safe —
// a nil *Registry hands out nil *Counter/*Histogram whose methods
// no-op, so disabled observability costs a pointer test per event.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Class states a metric's reproducibility contract.
type Class int

const (
	// Deterministic metrics count work units. Because the parallel
	// engines execute the same work set in every schedule (PR 2's
	// bit-reproducibility contract) and integer addition commutes,
	// a Deterministic metric's snapshot value is identical across
	// runs and across -parallel worker counts.
	Deterministic Class = iota
	// BestEffort metrics observe scheduling (pool occupancy, racy
	// cache contention): their values are meaningful but may differ
	// between runs. Determinism tests must ignore them.
	BestEffort
)

func (c Class) String() string {
	if c == Deterministic {
		return "deterministic"
	}
	return "best-effort"
}

// Counter is a monotonically increasing atomic counter. The zero
// value is ready to use; a nil *Counter no-ops.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (no-op on a nil receiver).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is an instantaneous level (heap bytes, live sessions, pool
// occupancy). Unlike a Counter it moves both ways; most gauges observe
// the runtime or scheduling and are therefore BestEffort class. The
// zero value is ready to use; a nil *Gauge no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current level (no-op on a nil receiver).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the level by n (no-op on a nil receiver).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current level (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets:
// bucket 0 holds the value 0, bucket b holds [2^(b-1), 2^b-1], and
// the last bucket absorbs everything above.
const histBuckets = 18

// Histogram is an atomic power-of-two histogram over non-negative
// integer observations (iteration counts, rank sizes, occupancy).
// A nil *Histogram no-ops.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketLe returns bucket b's inclusive upper value bound, or -1 for
// the unbounded overflow bucket. Exposition formats (Prometheus
// cumulative buckets) and quantile estimation both key off it.
func bucketLe(b int) int64 {
	switch {
	case b == 0:
		return 0
	case b == histBuckets-1:
		return -1
	default:
		return int64(1)<<b - 1
	}
}

// bucketRange renders bucket b's value range for reports.
func bucketRange(b int) string {
	switch {
	case b == 0:
		return "0"
	case b == 1:
		return "1"
	case b == histBuckets-1:
		return fmt.Sprintf(">=%d", int64(1)<<(b-1))
	default:
		return fmt.Sprintf("%d-%d", int64(1)<<(b-1), int64(1)<<b-1)
	}
}

// Observe records one value (no-op on a nil receiver).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Registry is a named collection of counters and histograms. Metrics
// are registered get-or-create, so independent subsystems sharing a
// name accumulate into the same instrument. A nil *Registry hands out
// nil instruments; all methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*counterEntry
	hists    map[string]*histEntry
	gauges   map[string]*gaugeEntry
}

type counterEntry struct {
	c     *Counter
	class Class
	help  string
}

type histEntry struct {
	h     *Histogram
	class Class
	help  string
}

type gaugeEntry struct {
	g     *Gauge
	class Class
	help  string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*counterEntry{},
		hists:    map[string]*histEntry{},
		gauges:   map[string]*gaugeEntry{},
	}
}

// Counter returns the counter registered under name, creating it with
// the given class and help text on first use. Returns nil on a nil
// registry.
func (r *Registry) Counter(name string, class Class, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.counters[name]; ok {
		return e.c
	}
	e := &counterEntry{c: &Counter{}, class: class, help: help}
	r.counters[name] = e
	return e.c
}

// Histogram returns the histogram registered under name, creating it
// on first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, class Class, help string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.hists[name]; ok {
		return e.h
	}
	e := &histEntry{h: &Histogram{}, class: class, help: help}
	r.hists[name] = e
	return e.h
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string, class Class, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.gauges[name]; ok {
		return e.g
	}
	e := &gaugeEntry{g: &Gauge{}, class: class, help: help}
	r.gauges[name] = e
	return e.g
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Class string `json:"class"`
	Value int64  `json:"value"`
	Help  string `json:"help,omitempty"`
}

// BucketValue is one non-empty histogram bucket in a snapshot. Le is
// the bucket's inclusive upper value bound (-1 for the unbounded
// overflow bucket) — the cumulative-bucket boundary Prometheus
// exposition and Quantile work from.
type BucketValue struct {
	Range string `json:"range"`
	Le    int64  `json:"le"`
	Count int64  `json:"count"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Class string `json:"class"`
	Value int64  `json:"value"`
	Help  string `json:"help,omitempty"`
}

// HistogramValue is one histogram in a snapshot.
type HistogramValue struct {
	Name    string        `json:"name"`
	Class   string        `json:"class"`
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Max     int64         `json:"max"`
	Buckets []BucketValue `json:"buckets,omitempty"`
	Help    string        `json:"help,omitempty"`
}

// Snapshot is a point-in-time copy of every registered metric, sorted
// by name so two snapshots of equal state render identically.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot captures the registry deterministically (sorted by name).
// A nil registry snapshots to an empty, non-nil snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{Counters: []CounterValue{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, e := range r.counters {
		s.Counters = append(s.Counters, CounterValue{
			Name:  name,
			Class: e.class.String(),
			Value: e.c.Value(),
			Help:  e.help,
		})
	}
	for name, e := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{
			Name:  name,
			Class: e.class.String(),
			Value: e.g.Value(),
			Help:  e.help,
		})
	}
	for name, e := range r.hists {
		hv := e.h.value()
		hv.Name, hv.Class, hv.Help = name, e.class.String(), e.help
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// value captures the histogram's current counts as an unnamed
// HistogramValue (the caller fills in name/class/help).
func (h *Histogram) value() HistogramValue {
	hv := HistogramValue{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for b := 0; b < histBuckets; b++ {
		if n := h.buckets[b].Load(); n > 0 {
			hv.Buckets = append(hv.Buckets, BucketValue{Range: bucketRange(b), Le: bucketLe(b), Count: n})
		}
	}
	return hv
}

// Quantile returns an upper bound of the q-quantile of the live
// histogram (see HistogramValue.Quantile). 0 on a nil receiver or an
// empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	return h.value().Quantile(q)
}

// Quantile estimates the q-quantile (q in [0,1], clamped) of the
// recorded observations from the power-of-two buckets: it locates the
// bucket holding the nearest-rank sample and returns that bucket's
// inclusive upper bound, capped at the observed maximum. The result is
// therefore always >= the exact quantile value and within its
// power-of-two bucket (a factor-2 envelope), which is the precision the
// histograms trade for being atomic and allocation-free. 0 when the
// histogram is empty.
func (h HistogramValue) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		if cum >= rank {
			if b.Le < 0 || b.Le > h.Max {
				// The nearest-rank sample sits in a bucket whose bound
				// exceeds the observed maximum (or is unbounded): the
				// maximum itself is the tightest sound answer.
				return h.Max
			}
			return b.Le
		}
	}
	return h.Max
}

// Counter returns the snapshotted value of the named counter (0 when
// absent).
func (s *Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the snapshotted value of the named gauge (0 when
// absent).
func (s *Snapshot) Gauge(name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Quantile returns an upper bound of the q-quantile of the named
// histogram (see HistogramValue.Quantile); the second result reports
// whether the histogram exists in the snapshot.
func (s *Snapshot) Quantile(name string, q float64) (int64, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h.Quantile(q), true
		}
	}
	return 0, false
}

// Deterministic returns the snapshot restricted to Deterministic-class
// metrics — the subset that must be identical across runs and worker
// counts. Determinism tests compare exactly this.
func (s *Snapshot) Deterministic() *Snapshot {
	out := &Snapshot{Counters: []CounterValue{}}
	det := Deterministic.String()
	for _, c := range s.Counters {
		if c.Class == det {
			out.Counters = append(out.Counters, c)
		}
	}
	for _, g := range s.Gauges {
		if g.Class == det {
			out.Gauges = append(out.Gauges, g)
		}
	}
	for _, h := range s.Histograms {
		if h.Class == det {
			out.Histograms = append(out.Histograms, h)
		}
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
