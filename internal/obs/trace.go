package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracer records hierarchical spans. Spans carry their full label path
// (e.g. "campaign/config:3/trajectory/netcalc"), so the multiset
// of completed paths — the span *set*, see Shape — depends only on the
// work performed, not on scheduling: sequential and parallel runs over
// the same inputs produce the same set. Timestamps and lane (thread)
// assignments are wall-clock observations and naturally vary.
//
// A nil *Tracer is inert: StartSpan returns a nil *Span whose End
// no-ops, so tracing costs one pointer test when disabled.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	done  []SpanRecord
	lanes []bool
}

// NewTracer returns an empty tracer whose span timestamps are measured
// from now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Span is one in-flight trace region. End completes it; a nil *Span
// no-ops.
type Span struct {
	t       *Tracer
	path    string
	catPath string
	name    string
	start   time.Duration
	lane    int
	ended   bool
}

// SpanRecord is one completed span. Path is the full label path;
// CatPath is the same path with instance suffixes stripped
// ("campaign/config/trajectory/netcalc") — the aggregation key for the
// human tree.
type SpanRecord struct {
	Path    string `json:"path"`
	CatPath string `json:"catPath"`
	Name    string `json:"name"`
	StartUs int64  `json:"startUs"`
	DurUs   int64  `json:"durUs"`
	Lane    int    `json:"lane"`
}

// category strips the instance suffix from a span name:
// "config:3" → "config".
func category(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i]
	}
	return name
}

// start opens a span under parent (nil for a root span).
func (t *Tracer) start(parent *Span, name string) *Span {
	path, catPath := name, category(name)
	if parent != nil {
		path = parent.path + "/" + name
		catPath = parent.catPath + "/" + catPath
	}
	t.mu.Lock()
	lane := 0
	for ; lane < len(t.lanes); lane++ {
		if !t.lanes[lane] {
			break
		}
	}
	if lane == len(t.lanes) {
		t.lanes = append(t.lanes, false)
	}
	t.lanes[lane] = true
	t.mu.Unlock()
	return &Span{t: t, path: path, catPath: catPath, name: name, start: time.Since(t.epoch), lane: lane}
}

// End completes the span. Ending twice, or ending a nil span, no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.t.epoch) - s.start
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.t.lanes[s.lane] = false
	s.t.done = append(s.t.done, SpanRecord{
		Path:    s.path,
		CatPath: s.catPath,
		Name:    s.name,
		StartUs: s.start.Microseconds(),
		DurUs:   dur.Microseconds(),
		Lane:    s.lane,
	})
}

// Records returns the completed spans sorted by start time, then path.
func (t *Tracer) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanRecord(nil), t.done...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartUs != out[j].StartUs {
			return out[i].StartUs < out[j].StartUs
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// Shape returns the sorted multiset of completed span label paths —
// the scheduling-independent part of a trace. Two runs over the same
// work produce equal shapes regardless of worker count.
func (t *Tracer) Shape() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]string, len(t.done))
	for i, r := range t.done {
		out[i] = r.Path
	}
	t.mu.Unlock()
	sort.Strings(out)
	return out
}

// TraceEvent is one Chrome-trace-viewer "complete" event (ph "X").
// A trace file is a plain JSON array of these, loadable in
// chrome://tracing or https://ui.perfetto.dev.
type TraceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// Events converts the completed spans to Chrome trace events. Lanes
// map to tids (+1: tid 0 renders oddly in some viewers).
func (t *Tracer) Events() []TraceEvent {
	recs := t.Records()
	evs := make([]TraceEvent, len(recs))
	for i, r := range recs {
		evs[i] = TraceEvent{
			Name: r.Name,
			Cat:  category(r.Name),
			Ph:   "X",
			Ts:   r.StartUs,
			Dur:  r.DurUs,
			Pid:  1,
			Tid:  r.Lane + 1,
			Args: map[string]string{"path": r.Path},
		}
	}
	return evs
}

// WriteChromeTrace writes the trace as an indented JSON array of
// complete events.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return EncodeChromeTrace(w, t.Events())
}

// EncodeChromeTrace writes events in the repository's canonical
// Chrome-trace encoding (indented JSON array; the golden fixture in
// testdata pins the format).
func EncodeChromeTrace(w io.Writer, events []TraceEvent) error {
	if events == nil {
		events = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(events)
}

// treeNode aggregates the spans sharing one category path.
type treeNode struct {
	count int64
	total int64 // µs
	max   int64 // µs
}

// WriteTree prints a human summary of the trace: one line per span
// category path, with counts and total/max duration, indented by
// depth. Instances ("config:3", "config:4") are aggregated under their
// category so long campaigns stay readable.
func (t *Tracer) WriteTree(w io.Writer) error {
	nodes := map[string]*treeNode{}
	for _, r := range t.Records() {
		n := nodes[r.CatPath]
		if n == nil {
			n = &treeNode{}
			nodes[r.CatPath] = n
		}
		n.count++
		n.total += r.DurUs
		if r.DurUs > n.max {
			n.max = r.DurUs
		}
	}
	keys := make([]string, 0, len(nodes))
	for k := range nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := nodes[k]
		depth := strings.Count(k, "/")
		name := k[strings.LastIndexByte(k, '/')+1:]
		width := 28 - 2*depth
		if width < len(name) {
			width = len(name)
		}
		if _, err := fmt.Fprintf(w, "%s%-*s %7d span(s) %12s total %12s max\n",
			strings.Repeat("  ", depth), width, name, n.count,
			usString(n.total), usString(n.max)); err != nil {
			return err
		}
	}
	return nil
}

func usString(us int64) string {
	switch {
	case us >= 1_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1_000:
		return fmt.Sprintf("%.2fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}
