package main

import (
	"os"
	"sort"
	"strings"

	"afdx/internal/obs"
)

// layerOf maps a span name to the module it times. Engine spans carry
// instance suffixes ("port:S1->e001", "path:v0001/0"); the benchmark's
// own spans are already named after their layer ("afdx.decode",
// "lint", ...); "bench.op" is the root that groups one op's spans.
func layerOf(name string) string {
	cat := name
	if i := strings.IndexByte(name, ':'); i >= 0 {
		cat = name[:i]
	}
	switch cat {
	case "http":
		return "serve"
	case "netcalc", "port":
		return "netcalc"
	case "trajectory", "path":
		return "trajectory"
	}
	return cat
}

// partition splits one op's wall time among its layers: every instant
// covered by a span goes to the layer of the deepest span open at that
// instant. A layer's share is therefore its self time — span time minus
// the part its child spans cover — taken as wall time, so the parallel
// per-port and per-path spans of one engine count once, not once per
// worker, and the shares add up to the root span's duration. Instants
// where equally deep spans of different layers overlap are split
// evenly between them.
func partition(events []obs.TraceEvent) map[string]int64 {
	type edge struct {
		t     int64
		delta int
		depth int
		layer string
	}
	edges := make([]edge, 0, 2*len(events))
	for _, e := range events {
		depth := strings.Count(e.Args["path"], "/")
		l := layerOf(e.Name)
		edges = append(edges, edge{e.Ts, +1, depth, l}, edge{e.Ts + e.Dur, -1, depth, l})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })

	// open[depth][layer] counts the spans open at the sweep position.
	var open []map[string]int
	out := map[string]int64{}
	for k := 0; k < len(edges); k++ {
		e := edges[k]
		for len(open) <= e.depth {
			open = append(open, map[string]int{})
		}
		open[e.depth][e.layer] += e.delta
		if open[e.depth][e.layer] == 0 {
			delete(open[e.depth], e.layer)
		}
		if k+1 == len(edges) || edges[k+1].t == e.t {
			continue
		}
		seg := edges[k+1].t - e.t
		for d := len(open) - 1; d >= 0; d-- {
			if len(open[d]) == 0 {
				continue
			}
			for l := range open[d] {
				out[l] += seg / int64(len(open[d]))
			}
			break
		}
	}
	return out
}

// shiftEvents returns a copy of events moved later by offset µs, so the
// spans of many ops — and of the benchmark and the server — line up on
// one timeline.
func shiftEvents(events []obs.TraceEvent, offset int64) []obs.TraceEvent {
	out := make([]obs.TraceEvent, len(events))
	for i, e := range events {
		e.Ts += offset
		out[i] = e
	}
	return out
}

// event builds one root-level Chrome-trace span.
func event(name string, ts, dur int64, pid int) obs.TraceEvent {
	cat, _, _ := strings.Cut(name, ":")
	return obs.TraceEvent{Name: name, Cat: cat, Ph: "X", Ts: ts, Dur: dur, Pid: pid, Tid: 1,
		Args: map[string]string{"path": name}}
}

// writeTrace writes the merged Chrome trace to path.
func writeTrace(path string, events []obs.TraceEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	if err := obs.EncodeChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
