package lint

import (
	"fmt"
	"sort"
	"strings"

	"afdx/internal/afdx"
	"afdx/internal/diag"
)

// The built-in analyzers, one stable code each. Structural analyzers
// re-expose the coded collectors of internal/afdx (the same code paths
// Network.Validate composes); analysis-level analyzers implement the
// feasibility pre-checks that previously lived inside the delay
// engines.
func init() {
	Register(&Analyzer{
		Code: diag.CodeStability, Name: "stability", NeedsPorts: true,
		Doc: "Checks every output port's aggregate long-term rate Σ s_max/BAG " +
			"against the link rate R. A port above R is unstable: backlog grows " +
			"without bound and no finite worst-case delay exists, so both delay " +
			"engines reject the configuration. Utilization above the configured " +
			"headroom (default 95%) is reported as a warning.",
		Run: runStability,
	})
	Register(&Analyzer{
		Code: diag.CodeRouting, Name: "routing",
		Doc: "Checks VL routing: every VL has at least one path; each path starts " +
			"at the source end system, crosses only switches, ends at a distinct " +
			"end system, and visits no node twice; and the port dependency graph " +
			"is acyclic (the holistic analyses require feed-forward networks).",
		Run: runRouting,
	})
	Register(&Analyzer{
		Code: diag.CodeVLIdentity, Name: "vl-identity",
		Doc: "Checks that every virtual link carries a non-empty, network-unique identifier.",
		Run: func(p *Pass) { reportAll(p, p.Net.VLIdentityDiagnostics()) },
	})
	Register(&Analyzer{
		Code: diag.CodeBAG, Name: "bag",
		Doc: "Checks Bandwidth Allocation Gaps against the ARINC 664 harmonic set: " +
			"powers of two in [1,128] ms. Non-positive BAGs are always errors; " +
			"out-of-standard values are errors in Strict mode and warnings in " +
			"Relaxed mode (parametric sweeps).",
		Run: func(p *Pass) { reportCode(p, p.Net.ContractDiagnostics(p.Opts.Mode)) },
	})
	Register(&Analyzer{
		Code: diag.CodeFrameSize, Name: "frame-size",
		Doc: "Checks frame-size contracts: s_min and s_max positive, s_min <= s_max, " +
			"and both within the Ethernet bounds [64,1518] B (Strict mode; " +
			"warnings in Relaxed mode).",
		Run: func(p *Pass) { reportCode(p, p.Net.ContractDiagnostics(p.Opts.Mode)) },
	})
	Register(&Analyzer{
		Code: diag.CodeMulticastTree, Name: "multicast-tree",
		Doc: "Checks that each multicast VL's paths form a tree rooted at the " +
			"source: paths sharing a node must share the whole prefix up to it, " +
			"since frames replicate at branch points and are never re-routed onto " +
			"a shared downstream node from different directions.",
		Run: func(p *Pass) { reportAll(p, p.Net.TreeDiagnostics()) },
	})
	Register(&Analyzer{
		Code: diag.CodeGrouping, Name: "grouping", NeedsPorts: true,
		Doc: "Reports (as information) when no input group of any output port " +
			"holds two or more flows, counting the flows an end system emits on " +
			"its own port as one group: the grouping (serialization) refinement " +
			"then has no precondition to exploit and cannot tighten any bound " +
			"on this configuration.",
		Run: runGrouping,
	})
	Register(&Analyzer{
		Code: diag.CodeESJitter, Name: "es-jitter",
		Doc: "Evaluates the ARINC 664 end-system output jitter formula (40 us fixed " +
			"plus the serialization of one maximum frame of every hosted VL) and " +
			"warns when an end system exceeds the standard's 500 us cap.",
		Run: func(p *Pass) { reportAll(p, p.Net.ESJitterDiagnostics()) },
	})
	Register(&Analyzer{
		Code: diag.CodeDeadline, Name: "deadline", NeedsPorts: true,
		Doc: "Pre-checks BAG-as-deadline feasibility: a path whose idle-network " +
			"delay floor (technological latencies plus minimum-frame transmission " +
			"times) already exceeds the VL's BAG can never be certified against " +
			"the common deadline convention, whatever the analysis.",
		Run: runDeadline,
	})
	Register(&Analyzer{
		Code: diag.CodeOrphan, Name: "orphans",
		Doc: "Flags declared end systems and switches that no VL path crosses, and " +
			"per-link rate overrides for links no VL uses: dead configuration that " +
			"usually indicates an incomplete edit.",
		Run: runOrphans,
	})
	Register(&Analyzer{
		Code: diag.CodeNetwork, Name: "network",
		Doc: "Checks network-level structure: at least one end system, unique node " +
			"declarations, positive link rates, non-negative technological " +
			"latencies, link-rate overrides naming declared nodes, no nil VL " +
			"entries, and non-negative priorities.",
		Run: func(p *Pass) { reportAll(p, p.Net.NetworkDiagnostics()) },
	})
	Register(&Analyzer{
		Code: diag.CodeLinkUtilization, Name: "link-utilization",
		Doc: "Checks every directed link's aggregate VL contract rate Σ s_max/BAG " +
			"against the admission budget, sharing the load computation of the " +
			"configuration generator's gate (afdx.Network.LinkLoads). Utilization " +
			"above the configured budget (default 75%) is a warning — the " +
			"bounds the engines certify degrade sharply as links fill — and " +
			"utilization at or above the full link rate is an error: the " +
			"busy-period fixpoints diverge at 100%, before the AFDX001 " +
			"stability frontier strictly above it.",
		Run: runLinkUtilization,
	})
	Register(&Analyzer{
		Code: diag.CodeAttachment, Name: "es-attachment",
		Doc: "Checks the ARINC 664 topology rule that an end system attaches to " +
			"exactly one switch: all paths entering or leaving an end system must " +
			"use the same adjacent switch.",
		Run: func(p *Pass) { reportCode(p, p.Net.RoutingDiagnostics()) },
	})
}

// reportAll forwards pre-coded diagnostics that all belong to the
// calling analyzer.
func reportAll(p *Pass, ds []diag.Diagnostic) {
	for _, d := range ds {
		p.Report(d)
	}
}

// reportCode forwards only the diagnostics carrying the calling
// analyzer's code, for collectors that emit a mix (contract: BAG and
// frame size; routing: paths and attachment).
func reportCode(p *Pass, ds []diag.Diagnostic) {
	for _, d := range ds {
		if d.Code == p.analyzer.Code {
			p.Report(d)
		}
	}
}

func runStability(p *Pass) {
	reportAll(p, UnstablePorts(p.Graph))
	util := p.Graph.UtilizationReport()
	ids := make([]afdx.PortID, 0, len(util))
	for id := range util {
		ids = append(ids, id)
	}
	afdx.SortPortIDs(ids)
	for _, id := range ids {
		u := util[id]
		if u > p.Opts.UtilizationHeadroom && u <= 1+StabilityTolerance {
			p.Reportf(diag.Warning, diag.Location{Link: id.String()},
				"leave provisioning headroom: bounds grow sharply near saturation",
				"port %s utilization %.3f exceeds the %.0f%% headroom",
				id, u, p.Opts.UtilizationHeadroom*100)
		}
	}
}

// runLinkUtilization works from the VL paths directly (no port graph
// needed), so over-budget links are reported even on configurations the
// structural analyzers reject.
func runLinkUtilization(p *Pass) {
	loads := p.Net.LinkLoads()
	ids := make([]afdx.PortID, 0, len(loads))
	for id := range loads {
		ids = append(ids, id)
	}
	afdx.SortPortIDs(ids)
	for _, id := range ids {
		rate := p.Net.LinkRateBitsPerUs(id.From, id.To)
		if rate <= 0 {
			continue // AFDX011 owns non-positive rates
		}
		u := loads[id] / rate
		switch {
		case u >= 1:
			p.Reportf(diag.Error, diag.Location{Link: id.String()},
				"move VLs off the link, raise its rate, or enlarge BAGs: busy periods diverge at full utilization",
				"link %s admission overrun: contract rate %.3f bits/us is %.1f%% of the link rate",
				id, loads[id], u*100)
		case u > p.Opts.LinkUtilizationWarn:
			p.Reportf(diag.Warning, diag.Location{Link: id.String()},
				"keep links under the admission budget: certified bounds degrade sharply as links fill",
				"link %s utilization %.3f exceeds the %.0f%% admission budget",
				id, u, p.Opts.LinkUtilizationWarn*100)
		}
	}
}

func runRouting(p *Pass) {
	reportCode(p, p.Net.RoutingDiagnostics())
	reportAll(p, portCycleDiagnostics(p.Net))
}

// portCycleDiagnostics detects cyclic port dependencies directly from
// the VL paths (port q feeds port p when some VL crosses q then p),
// without needing the derived port graph — which refuses to build for
// exactly these configurations.
func portCycleDiagnostics(n *afdx.Network) []diag.Diagnostic {
	succ := map[afdx.PortID][]afdx.PortID{}
	indeg := map[afdx.PortID]int{}
	seen := map[[2]afdx.PortID]bool{}
	for _, v := range n.VLs {
		if v == nil {
			continue
		}
		for _, path := range v.Paths {
			for k := 0; k+2 < len(path); k++ {
				q := afdx.PortID{From: path[k], To: path[k+1]}
				p := afdx.PortID{From: path[k+1], To: path[k+2]}
				if _, ok := indeg[q]; !ok {
					indeg[q] = 0
				}
				e := [2]afdx.PortID{q, p}
				if seen[e] {
					continue
				}
				seen[e] = true
				succ[q] = append(succ[q], p)
				indeg[p]++
			}
		}
	}
	// Kahn's algorithm, run forward and then on the reversed graph: a
	// port survives forward pruning when it lies on or downstream of a
	// cycle, reverse pruning when on or upstream — the intersection is
	// exactly the ports on cycles.
	forward := kahnResidue(indeg, succ)
	if forward == nil {
		return nil
	}
	pred := map[afdx.PortID][]afdx.PortID{}
	outdeg := map[afdx.PortID]int{}
	for id := range indeg {
		outdeg[id] = 0
	}
	for q, ss := range succ {
		for _, p := range ss {
			pred[p] = append(pred[p], q)
			outdeg[q]++
		}
	}
	backward := kahnResidue(outdeg, pred)
	var cyclic []string
	for id := range forward {
		if backward[id] {
			cyclic = append(cyclic, id.String())
		}
	}
	sort.Strings(cyclic)
	const maxShown = 8
	shown := cyclic
	if len(shown) > maxShown {
		shown = shown[:maxShown]
	}
	suffix := ""
	if len(cyclic) > maxShown {
		suffix = fmt.Sprintf(" (+%d more)", len(cyclic)-maxShown)
	}
	return []diag.Diagnostic{diag.New(diag.CodeRouting, diag.Error,
		diag.Location{},
		"break the loop: the holistic analyses require a feed-forward configuration",
		"cyclic port dependencies among %d ports: %s%s",
		len(cyclic), strings.Join(shown, ", "), suffix)}
}

// kahnResidue peels zero-degree nodes off the graph and returns the set
// that survives (nil when the graph is acyclic). deg is consumed.
func kahnResidue(deg map[afdx.PortID]int, next map[afdx.PortID][]afdx.PortID) map[afdx.PortID]bool {
	var ready []afdx.PortID
	for id, d := range deg {
		if d == 0 {
			//detcheck:allow DET003: kahnResidue returns the surviving node set and a count — both are independent of the order zero-degree nodes are peeled
			ready = append(ready, id)
		}
	}
	done := 0
	for len(ready) > 0 {
		id := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		done++
		for _, s := range next[id] {
			if deg[s]--; deg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if done == len(deg) {
		return nil
	}
	residue := map[afdx.PortID]bool{}
	for id, d := range deg {
		if d > 0 {
			residue[id] = true
		}
	}
	return residue
}

// runGrouping fires when no input group holds two flows. Every group
// holds at least one, so a port with more flows than groups has a group
// of two, and the refinement has work there. Source-port groups count:
// the trajectory engine serializes them too.
func runGrouping(p *Pass) {
	for _, port := range p.Graph.Ports {
		if len(port.Flows) > len(port.Groups) {
			return
		}
	}
	p.Reportf(diag.Info, diag.Location{},
		"expected on lightly-multiplexed configurations; -no-grouping would give identical bounds",
		"no port multiplexes two flows through a shared input link: the grouping (serialization) refinement cannot tighten any bound")
}

func runDeadline(p *Pass) {
	for _, pid := range p.Net.AllPaths() {
		vl := p.Graph.VL(pid.VL)
		if vl == nil || vl.BAGMs <= 0 {
			continue // identity/contract analyzers cover these
		}
		floor, err := p.Graph.MinPathDelayUs(pid)
		if err != nil {
			continue
		}
		if floor > vl.BAGUs() {
			p.Reportf(diag.Warning, diag.Location{VL: pid.VL},
				"shorten the path, raise link rates, or enlarge the BAG",
				"path %s idle-network floor %.1f us exceeds its BAG %.0f us: the BAG-as-deadline check can never pass",
				pid, floor, vl.BAGUs())
		}
	}
}

func runOrphans(p *Pass) {
	used := map[string]bool{}
	usedLinks := map[afdx.PortID]bool{}
	for _, v := range p.Net.VLs {
		if v == nil {
			continue
		}
		used[v.Source] = true
		for _, path := range v.Paths {
			for k, nd := range path {
				used[nd] = true
				if k+1 < len(path) {
					usedLinks[afdx.PortID{From: nd, To: path[k+1]}] = true
				}
			}
		}
	}
	for _, es := range p.Net.EndSystems {
		if !used[es] {
			p.Reportf(diag.Warning, diag.Location{Node: es},
				"remove the declaration or route a VL through it",
				"end system %q is not used by any VL path", es)
		}
	}
	for _, sw := range p.Net.Switches {
		if !used[sw] {
			p.Reportf(diag.Warning, diag.Location{Node: sw},
				"remove the declaration or route a VL through it",
				"switch %q is not used by any VL path", sw)
		}
	}
	for _, lr := range p.Net.LinkRates {
		if !usedLinks[afdx.PortID{From: lr.From, To: lr.To}] {
			p.Reportf(diag.Warning, diag.Location{Link: lr.From + "->" + lr.To},
				"remove the override or fix the link it was meant for",
				"link rate override %s->%s applies to a link no VL uses", lr.From, lr.To)
		}
	}
}
