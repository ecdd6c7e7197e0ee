package afdx

import (
	"fmt"
	"math"

	"afdx/internal/diag"
)

// This file holds the structural validation of a Network, refactored to
// emit coded diagnostics (internal/diag) instead of bare errors. The
// collectors below are the single source of truth for every structural
// and contractual rule: Network.Validate composes them and returns the
// first Error-severity finding, and the lint analyzers (internal/lint)
// re-expose them one code per analyzer with full, non-failing coverage.

// StructuralDiagnostics runs every structural and contractual check of
// the configuration and returns all findings, in collector order
// (network-level first, then per-VL identity, contract, routing, tree).
// It never stops at the first violation.
func (n *Network) StructuralDiagnostics(mode ValidationMode) []diag.Diagnostic {
	var ds []diag.Diagnostic
	ds = append(ds, n.NetworkDiagnostics()...)
	ds = append(ds, n.VLIdentityDiagnostics()...)
	ds = append(ds, n.ContractDiagnostics(mode)...)
	ds = append(ds, n.RoutingDiagnostics()...)
	ds = append(ds, n.TreeDiagnostics()...)
	return ds
}

// NetworkDiagnostics checks the network-level structure (code AFDX011):
// presence of end systems, unique node declarations, positive rates,
// non-negative latencies, link-rate overrides naming known nodes, and
// per-VL basics that are not identity or contract (nil entries, negative
// priorities).
func (n *Network) NetworkDiagnostics() []diag.Diagnostic {
	var ds []diag.Diagnostic
	report := func(loc diag.Location, suggestion, format string, args ...any) {
		ds = append(ds, diag.New(diag.CodeNetwork, diag.Error, loc, suggestion, format, args...))
	}
	if len(n.EndSystems) == 0 {
		report(diag.Location{}, "declare the transmitting and receiving end systems",
			"network %q has no end systems", n.Name)
	}
	// seen holds every declared node name; the link-rate checks below
	// look names up in it.
	seen := make(map[string]string, len(n.EndSystems)+len(n.Switches))
	for _, e := range n.EndSystems {
		if k, dup := seen[e]; dup {
			report(diag.Location{Node: e}, "rename one of the two declarations",
				"node %q declared twice (%s and end system)", e, k)
			continue
		}
		seen[e] = "end system"
	}
	for _, s := range n.Switches {
		if k, dup := seen[s]; dup {
			report(diag.Location{Node: s}, "rename one of the two declarations",
				"node %q declared twice (%s and switch)", s, k)
			continue
		}
		seen[s] = "switch"
	}
	if n.Params.LinkRateMbps <= 0 {
		report(diag.Location{}, "set params.linkRateMbps to a positive rate (AFDX uses 100 Mb/s)",
			"non-positive link rate %g", n.Params.LinkRateMbps)
	}
	if n.Params.SwitchLatencyUs < 0 || n.Params.SourceLatencyUs < 0 {
		report(diag.Location{}, "technological latencies must be >= 0",
			"negative technological latency")
	}
	for _, lr := range n.LinkRates {
		link := diag.Location{Link: lr.From + "->" + lr.To}
		if lr.Mbps <= 0 {
			report(link, "set a positive per-link rate",
				"link %s->%s has non-positive rate %g Mb/s", lr.From, lr.To, lr.Mbps)
		}
		if _, ok := seen[lr.From]; !ok {
			report(link, "declare the node or drop the override",
				"link rate for unknown node %q", lr.From)
		}
		if _, ok := seen[lr.To]; !ok {
			report(link, "declare the node or drop the override",
				"link rate for unknown node %q", lr.To)
		}
	}
	for _, v := range n.VLs {
		if v == nil {
			report(diag.Location{}, "remove the null entry from the VL list",
				"nil virtual link in network %q", n.Name)
			continue
		}
		if v.Priority < 0 {
			report(diag.Location{VL: v.ID}, "priorities are 0 (highest) and positive integers",
				"VL %s has negative priority %d", v.ID, v.Priority)
		}
	}
	return ds
}

// VLIdentityDiagnostics checks VL identifiers (code AFDX003): non-empty
// and unique.
func (n *Network) VLIdentityDiagnostics() []diag.Diagnostic {
	var ds []diag.Diagnostic
	ids := map[string]bool{}
	for _, v := range n.VLs {
		if v == nil {
			continue // reported by NetworkDiagnostics
		}
		if v.ID == "" {
			ds = append(ds, diag.New(diag.CodeVLIdentity, diag.Error, diag.Location{},
				"give every VL a unique identifier", "virtual link with empty ID"))
			continue
		}
		if ids[v.ID] {
			ds = append(ds, diag.New(diag.CodeVLIdentity, diag.Error, diag.Location{VL: v.ID},
				"VL identifiers must be unique network-wide", "duplicate virtual link ID %q", v.ID))
			continue
		}
		ids[v.ID] = true
	}
	return ds
}

// ContractDiagnostics checks the ARINC 664 traffic contract of every VL:
// the BAG (code AFDX004) and the frame-size bounds (code AFDX005). In
// Strict mode out-of-standard values are errors; in Relaxed mode they
// are demoted to warnings (the parametric sweeps of the paper explore
// such values deliberately), while non-positive values and BAGs whose
// microsecond value is not finite (NaN, or overflowing to +Inf) stay
// errors: no engine can analyse them.
func (n *Network) ContractDiagnostics(mode ValidationMode) []diag.Diagnostic {
	var ds []diag.Diagnostic
	outOfStandard := diag.Error
	if mode == Relaxed {
		outOfStandard = diag.Warning
	}
	for _, v := range n.VLs {
		if v == nil {
			continue
		}
		loc := diag.Location{VL: v.ID}
		if v.BAGMs <= 0 {
			ds = append(ds, diag.New(diag.CodeBAG, diag.Error, loc,
				"set bagMs to a power of two in [1,128]",
				"VL %s has non-positive BAG %g ms", v.ID, v.BAGMs))
		} else if us := v.BAGUs(); math.IsNaN(us) || math.IsInf(us, 1) {
			ds = append(ds, diag.New(diag.CodeBAG, diag.Error, loc,
				"set bagMs to a power of two in [1,128]",
				"VL %s has non-finite BAG %g ms (%g us)", v.ID, v.BAGMs, us))
		} else if v.BAGMs < MinBAGMs || v.BAGMs > MaxBAGMs || !isPowerOfTwo(v.BAGMs) {
			ds = append(ds, diag.New(diag.CodeBAG, outOfStandard, loc,
				"ARINC 664 BAGs are the powers of two in [1,128] ms",
				"VL %s BAG %g ms is not a power of two in [%d,%d] ms",
				v.ID, v.BAGMs, MinBAGMs, MaxBAGMs))
		}
		if v.SMaxBytes <= 0 || v.SMinBytes <= 0 {
			ds = append(ds, diag.New(diag.CodeFrameSize, diag.Error, loc,
				"frame sizes must be positive byte counts",
				"VL %s has non-positive frame size", v.ID))
			continue
		}
		if v.SMinBytes > v.SMaxBytes {
			ds = append(ds, diag.New(diag.CodeFrameSize, diag.Error, loc,
				"swap or correct the bounds: s_min must not exceed s_max",
				"VL %s has s_min %dB > s_max %dB", v.ID, v.SMinBytes, v.SMaxBytes))
		}
		if v.SMaxBytes > MaxFrameBytes {
			ds = append(ds, diag.New(diag.CodeFrameSize, outOfStandard, loc,
				"cap s_max at the Ethernet MTU",
				"VL %s s_max %dB exceeds Ethernet maximum %dB", v.ID, v.SMaxBytes, MaxFrameBytes))
		}
		if v.SMinBytes < MinFrameBytes {
			ds = append(ds, diag.New(diag.CodeFrameSize, outOfStandard, loc,
				"raise s_min to the Ethernet minimum frame size",
				"VL %s s_min %dB below Ethernet minimum %dB", v.ID, v.SMinBytes, MinFrameBytes))
		}
	}
	return ds
}

// nodeEntry is one node name's row in the per-call table that
// RoutingDiagnostics builds: its declared kinds, the switch it attaches
// to (end systems), and the last path that visited it.
type nodeEntry struct {
	es, sw   bool
	attach   string
	attached bool
	visit    int
}

// RoutingDiagnostics checks VL routing (code AFDX002) and the
// one-switch-per-end-system attachment rule (code AFDX012): every VL
// has at least one path; each path starts at the source end system,
// crosses only switches, ends at a distinct end system, and visits no
// node twice. The node names are indexed once per call, so the checks
// cost one lookup per path node: O(Σ path length) in all.
func (n *Network) RoutingDiagnostics() []diag.Diagnostic {
	var ds []diag.Diagnostic
	route := func(loc diag.Location, suggestion, format string, args ...any) {
		ds = append(ds, diag.New(diag.CodeRouting, diag.Error, loc, suggestion, format, args...))
	}
	table := make(map[string]*nodeEntry, len(n.EndSystems)+len(n.Switches))
	node := func(name string) *nodeEntry {
		e := table[name]
		if e == nil {
			e = &nodeEntry{}
			table[name] = e
		}
		return e
	}
	for _, e := range n.EndSystems {
		node(e).es = true
	}
	for _, s := range n.Switches {
		node(s).sw = true
	}
	var ents []*nodeEntry // the current path's rows, reused across paths
	visit := 0
	for _, v := range n.VLs {
		if v == nil {
			continue
		}
		loc := diag.Location{VL: v.ID}
		if !node(v.Source).es {
			route(loc, "VL sources must be declared end systems (mono-transmitter rule)",
				"VL %s source %q is not an end system", v.ID, v.Source)
		}
		if len(v.Paths) == 0 {
			route(loc, "route the VL to at least one destination end system",
				"VL %s has no path", v.ID)
			continue
		}
		for pi, path := range v.Paths {
			if len(path) < 3 {
				route(loc, "an AFDX path is source ES, one or more switches, destination ES",
					"VL %s path %d too short (%v): need source ES, >=1 switch, dest ES", v.ID, pi, path)
				continue
			}
			ents = ents[:0]
			for _, nd := range path {
				ents = append(ents, node(nd))
			}
			if path[0] != v.Source {
				route(diag.Location{VL: v.ID, Node: path[0]}, "paths must start at the VL's source",
					"VL %s path %d starts at %q, want source %q", v.ID, pi, path[0], v.Source)
			}
			last := path[len(path)-1]
			if !ents[len(path)-1].es {
				route(diag.Location{VL: v.ID, Node: last}, "destinations must be declared end systems",
					"VL %s path %d ends at %q which is not an end system", v.ID, pi, last)
			}
			if last == v.Source {
				route(loc, "a VL cannot be its own destination",
					"VL %s path %d loops back to its source", v.ID, pi)
			}
			for k := 1; k < len(path)-1; k++ {
				if !ents[k].sw {
					route(diag.Location{VL: v.ID, Node: path[k]}, "interior path nodes must be switches",
						"VL %s path %d interior node %q is not a switch", v.ID, pi, path[k])
				}
			}
			visit++
			for k, e := range ents {
				if e.visit == visit {
					route(diag.Location{VL: v.ID, Node: path[k]}, "remove the routing loop",
						"VL %s path %d visits %q twice", v.ID, pi, path[k])
					break
				}
				e.visit = visit
			}
			// End systems attach to exactly one switch (ARINC 664 rule).
			for _, end := range [2][2]int{{0, 1}, {len(path) - 1, len(path) - 2}} {
				e, sw := ents[end[0]], path[end[1]]
				if !e.es {
					continue
				}
				if e.attached && e.attach != sw {
					ds = append(ds, diag.New(diag.CodeAttachment, diag.Error,
						diag.Location{Node: path[end[0]]},
						"an end system connects to exactly one switch port",
						"end system %q attached to both %q and %q", path[end[0]], e.attach, sw))
					continue
				}
				e.attach, e.attached = sw, true
			}
		}
	}
	return ds
}

// TreeDiagnostics checks multicast well-formedness (code AFDX006): the
// paths of a VL must form a tree rooted at the source — whenever two
// paths share a node, their prefixes up to that node are identical (a
// frame is replicated at branch points, never re-routed onto a shared
// downstream node from different directions).
func (n *Network) TreeDiagnostics() []diag.Diagnostic {
	var ds []diag.Diagnostic
	pred := map[string]string{} // reused across VLs
	for _, v := range n.VLs {
		if v == nil {
			continue
		}
		clear(pred)
		for pi, path := range v.Paths {
			for k := 1; k < len(path); k++ {
				node, prev := path[k], path[k-1]
				if p, ok := pred[node]; ok && p != prev {
					ds = append(ds, diag.New(diag.CodeMulticastTree, diag.Error,
						diag.Location{VL: v.ID, Node: node},
						"reroute so that all paths reach each shared node from the same predecessor",
						"VL %s path %d reaches %q from %q, but another path reaches it from %q (multicast routing must be a tree)",
						v.ID, pi, node, prev, p))
					continue
				}
				pred[node] = prev
			}
		}
	}
	return ds
}

// Validate checks the structural and contractual consistency of the
// network configuration and returns the first violation found, as an
// error carrying the diagnostic's stable code. The full, non-failing
// view of the same checks is StructuralDiagnostics (and, with the
// analysis-level checks included, the internal/lint engine).
func (n *Network) Validate(mode ValidationMode) error {
	if d, ok := diag.FirstError(n.StructuralDiagnostics(mode)); ok {
		return fmt.Errorf("afdx: [%s] %s", d.Code, d.Message)
	}
	return nil
}
