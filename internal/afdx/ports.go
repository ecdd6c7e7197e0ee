package afdx

import (
	"fmt"
	"slices"
	"strings"
)

// PortID identifies an output port by the directed link it transmits on:
// the port of node From that feeds node To.
type PortID struct {
	From string
	To   string
}

func (p PortID) String() string { return p.From + "->" + p.To }

// PortFlow records one VL crossing a port and how it enters it. A
// multicast VL crosses a shared port once even if several of its paths
// use it (frames are replicated at branch points, downstream).
type PortFlow struct {
	VL *VirtualLink
	// Ord is the VL's index in PortGraph.VLOrder.
	Ord int32
	// Group indexes the port's Groups: the input link the VL arrives
	// through.
	Group int32
	// Up is the VL's index in the Flows of the port it crossed just
	// before, or -1 at its source port.
	Up int32
}

// InputGroup is one input link of a port. The flows that arrive
// through it are serialized on it: the paper's grouping technique
// (section II-B) shapes them together at the link's rate.
type InputGroup struct {
	// Prev is the upstream node of the link, or "" for the flows the
	// port's own end system emits.
	Prev string
	// RateBitsPerUs is the link's rate; the "" group carries the port's
	// own rate.
	RateBitsPerUs float64
}

// Port is one FIFO output port with the flows that compete on it.
type Port struct {
	ID PortID
	// RateBitsPerUs is the transmission rate of the outgoing link.
	RateBitsPerUs float64
	// LatencyUs is the technological latency of the port.
	LatencyUs float64
	// Flows lists the VLs multiplexed on the port, sorted by VL ID.
	Flows []PortFlow
	// Groups lists the port's input links, sorted by input node. Every
	// group has at least one flow.
	Groups []InputGroup
}

// FlowIndex returns the index in Flows of the given VL ID, and whether
// the VL crosses the port.
func (p *Port) FlowIndex(id string) (int, bool) {
	return slices.BinarySearchFunc(p.Flows, id, func(f PortFlow, id string) int {
		return strings.Compare(f.VL.ID, id)
	})
}

// PortGraph is the derived analysable view of a Network: its output
// ports, the path of each (VL, destination) pair expressed as a port
// sequence, and a feed-forward (topological) order on ports.
type PortGraph struct {
	Net   *Network
	Ports map[PortID]*Port
	// Order is a topological order of the ports: if any VL crosses port
	// q immediately before port p, then q precedes p in Order.
	Order []PortID
	paths map[PathID][]PortID
	// vls indexes the network's VLs by ID. Network.VL is a linear scan
	// (the Network is a mutable configuration object); the engines sit
	// in per-path loops and need the O(1) lookup the frozen graph can
	// afford.
	vls map[string]*VirtualLink
	// ranks is the dependency-rank grouping of the ports (Ranks),
	// derived together with Order.
	ranks [][]PortID

	// vlOrder holds the network's VLs sorted by ID, the order the build
	// visits them in.
	vlOrder []*VirtualLink
}

// BuildPortGraph derives the port-level view of the network. It returns
// an error when the configuration is invalid or when the port dependency
// graph is cyclic (holistic analyses require feed-forward networks, as do
// the configurations studied in the paper).
//
// The build numbers the ports densely as it creates them and keeps the
// port-to-port edges as integer lists, so ordering and ranking the ports
// never touches a PortID-keyed map. VLs are visited in ID order, which
// leaves every port's flow list sorted and puts a VL's incidences at a
// port back to back: comparing with the port's last flow is enough to
// record a multicast VL once at a port its paths share. Validation's
// tree check (AFDX006) makes those paths reach the port through the
// same link, so the first crossing's group holds for all of them. The
// same order makes the loop index the VL's ordinal, and leaves the VL
// the last flow of the port it just left, which gives its upstream
// index. Input groups are keyed by the number of the port they arrive
// from while the build runs, and renumbered by input node at the end.
func BuildPortGraph(n *Network, mode ValidationMode) (*PortGraph, error) {
	if err := n.Validate(mode); err != nil {
		return nil, err
	}
	// Validation guarantees every path has at least three nodes, so a
	// path of k nodes crosses exactly k-1 ports.
	incidences, npaths := 0, 0
	for _, v := range n.VLs {
		npaths += len(v.Paths)
		for _, path := range v.Paths {
			incidences += len(path) - 1
		}
	}
	vls := slices.Clone(n.VLs)
	slices.SortFunc(vls, func(a, b *VirtualLink) int { return strings.Compare(a.ID, b.ID) })
	pg := &PortGraph{
		Net:     n,
		paths:   make(map[PathID][]PortID, npaths),
		vls:     make(map[string]*VirtualLink, len(vls)),
		vlOrder: vls,
	}
	endSystems := make(map[string]bool, len(n.EndSystems))
	for _, e := range n.EndSystems {
		endSystems[e] = true
	}
	var (
		ports []*Port
		index = map[PortID]int32{} // dense port number, in creation order
		succ  [][]int32            // succ[i]: the ports some VL crosses right after ports[i]
		// feeds[i][g]: the port group g of ports[i] arrives from (-1 for
		// the flows sourced there), in creation order.
		feeds [][]int32
		seqs  = make([]PortID, incidences)
	)
	for ord, v := range vls {
		pg.vls[v.ID] = v
		for pi, path := range v.Paths {
			hops := len(path) - 1
			seq := seqs[:0:hops]
			seqs = seqs[hops:]
			from := int32(-1)
			for k := 0; k+1 < len(path); k++ {
				id := PortID{From: path[k], To: path[k+1]}
				seq = append(seq, id)
				i, ok := index[id]
				if !ok {
					lat := n.Params.SwitchLatencyUs
					if endSystems[path[k]] {
						lat = n.Params.SourceLatencyUs
					}
					i = int32(len(ports))
					index[id] = i
					ports = append(ports, &Port{
						ID:            id,
						RateBitsPerUs: n.LinkRateBitsPerUs(path[k], path[k+1]),
						LatencyUs:     lat,
					})
					succ = append(succ, nil)
					feeds = append(feeds, nil)
				}
				port := ports[i]
				if last := len(port.Flows) - 1; last < 0 || port.Flows[last].VL != v {
					g := slices.Index(feeds[i], from)
					if g < 0 {
						g = len(feeds[i])
						feeds[i] = append(feeds[i], from)
					}
					up := int32(-1)
					if from >= 0 {
						up = int32(len(ports[from].Flows) - 1)
					}
					port.Flows = append(port.Flows, PortFlow{VL: v, Ord: int32(ord), Group: int32(g), Up: up})
				}
				if from >= 0 && !slices.Contains(succ[from], i) {
					succ[from] = append(succ[from], i)
				}
				from = i
			}
			pg.paths[PathID{VL: v.ID, PathIdx: pi}] = seq
		}
	}
	pg.Ports = make(map[PortID]*Port, len(ports))
	var byNode []int32
	for i, p := range ports {
		// Renumber the groups, numbered so far in order of arrival, by
		// input node.
		byNode = append(byNode[:0], feeds[i]...)
		slices.SortFunc(byNode, func(a, b int32) int {
			return strings.Compare(inputLink(ports, p, a).Prev, inputLink(ports, p, b).Prev)
		})
		p.Groups = make([]InputGroup, len(byNode))
		for g, u := range byNode {
			p.Groups[g] = inputLink(ports, p, u)
		}
		for k, f := range p.Flows {
			p.Flows[k].Group = int32(slices.Index(byNode, feeds[i][f.Group]))
		}
		pg.Ports[p.ID] = p
	}
	var err error
	if pg.Order, pg.ranks, err = orderPorts(ports, succ); err != nil {
		return nil, err
	}
	return pg, nil
}

// inputLink describes the input link of port p that the flows arriving
// from port number u cross: ports[u]'s link, or p's own for u = -1 (the
// flows sourced at p).
func inputLink(ports []*Port, p *Port, u int32) InputGroup {
	if u < 0 {
		return InputGroup{RateBitsPerUs: p.RateBitsPerUs}
	}
	return InputGroup{Prev: ports[u].ID.From, RateBitsPerUs: ports[u].RateBitsPerUs}
}

// PathPorts returns the port sequence of one (VL, destination) path.
func (pg *PortGraph) PathPorts(id PathID) []PortID { return pg.paths[id] }

// VL returns the virtual link with the given ID, or nil. Unlike
// Network.VL this is a constant-time lookup against the index frozen
// at graph-build time.
func (pg *PortGraph) VL(id string) *VirtualLink { return pg.vls[id] }

// VLOrder returns the network's VLs sorted by ID. The slice index is
// the VL's dense ordinal: engines that replace string-keyed map lookups
// with array indexing in their hot loops key those arrays by this
// ordinal, and because the order is the ID sort every analysis already
// iterates in, sorting by ordinal is sorting by VL ID.
func (pg *PortGraph) VLOrder() []*VirtualLink { return pg.vlOrder }

// orderPorts computes a deterministic topological order of the port
// dependency graph (port q feeds port p when some VL crosses q then p)
// and its dependency ranks, from the dense form BuildPortGraph derives:
// ports[i] is port number i and succ[i] lists the ports it feeds. Ties
// are broken in PortID order; ranking every port by that order once
// lets the Kahn queue and the rank lists sort plain integers.
func orderPorts(ports []*Port, succ [][]int32) ([]PortID, [][]PortID, error) {
	// byID[r] is the port number of the r-th port in PortID order, and
	// pos its inverse.
	byID := make([]int32, len(ports))
	for i := range byID {
		byID[i] = int32(i)
	}
	slices.SortFunc(byID, func(a, b int32) int { return comparePortIDs(ports[a].ID, ports[b].ID) })
	pos := make([]int32, len(ports))
	indeg := make([]int32, len(ports))
	for r, i := range byID {
		pos[i] = int32(r)
	}
	for _, next := range succ {
		for _, s := range next {
			indeg[s]++
		}
	}
	// Kahn's algorithm with PortID tie-breaking: ready holds the PortID
	// positions of the released ports, sorted, and the smallest goes
	// next. A port's rank is the longest feeder chain above it, final
	// by the time the port is released.
	var ready []int32
	for r, i := range byID {
		if indeg[i] == 0 {
			ready = append(ready, int32(r))
		}
	}
	order := make([]PortID, 0, len(ports))
	rank := make([]int32, len(ports))
	maxRank := int32(0)
	for len(ready) > 0 {
		i := byID[ready[0]]
		ready = ready[1:]
		order = append(order, ports[i].ID)
		maxRank = max(maxRank, rank[i])
		for _, s := range succ[i] {
			rank[s] = max(rank[s], rank[i]+1)
			if indeg[s]--; indeg[s] == 0 {
				at, _ := slices.BinarySearch(ready, pos[s])
				ready = slices.Insert(ready, at, pos[s])
			}
		}
	}
	if len(order) != len(ports) {
		return nil, nil, fmt.Errorf("afdx: cyclic port dependencies (%d of %d ports ordered); the holistic analyses require a feed-forward configuration",
			len(order), len(ports))
	}
	// Walking the ports in PortID order fills each rank already sorted.
	ranks := make([][]PortID, maxRank+1)
	for _, i := range byID {
		ranks[rank[i]] = append(ranks[rank[i]], ports[i].ID)
	}
	return order, ranks, nil
}

// Ranks groups the ports into dependency ranks: rank 0 holds the ports
// no other port feeds, and every port's upstream feeders sit in
// strictly lower ranks (the rank is the longest feeder chain above the
// port). Ports within one rank are mutually independent, so a holistic
// analysis that has finished every rank below r may analyse all of
// rank r's ports concurrently; ranks are returned in dependency order
// and each rank is sorted canonically for deterministic scheduling.
func (pg *PortGraph) Ranks() [][]PortID { return pg.ranks }

func comparePortIDs(a, b PortID) int {
	if c := strings.Compare(a.From, b.From); c != 0 {
		return c
	}
	return strings.Compare(a.To, b.To)
}

func sortPortIDs(ids []PortID) { slices.SortFunc(ids, comparePortIDs) }

// SortPortIDs orders port identifiers by (From, To) — the canonical
// iteration order whenever port results gathered from a map must be
// consumed deterministically (DET001/DET003).
func SortPortIDs(ids []PortID) { sortPortIDs(ids) }

// FlowsSharingPath returns the set of VLs whose routing shares at least
// one output port with the given path (including the path's own VL), with
// for each such VL the first shared port along the given path. This is
// the interference set of the Trajectory approach.
func (pg *PortGraph) FlowsSharingPath(id PathID) map[string]PortID {
	shared := map[string]PortID{}
	for _, pid := range pg.paths[id] {
		for _, f := range pg.Ports[pid].Flows {
			if _, ok := shared[f.VL.ID]; !ok {
				shared[f.VL.ID] = pid
			}
		}
	}
	return shared
}

// MinPathDelayUs returns the physical floor of a path's end-to-end
// delay: the sum, over its output ports, of the technological latency
// plus the transmission time of a minimum-size frame — the delay of a
// frame crossing an entirely idle network. Worst-case bounds minus this
// floor give the certification jitter figure.
func (pg *PortGraph) MinPathDelayUs(id PathID) (float64, error) {
	seq, ok := pg.paths[id]
	if !ok {
		return 0, fmt.Errorf("afdx: unknown path %v", id)
	}
	vl := pg.VL(id.VL)
	total := 0.0
	for _, pid := range seq {
		p := pg.Ports[pid]
		total += p.LatencyUs + vl.CMinUs(p.RateBitsPerUs)
	}
	return total, nil
}

// Links lists the distinct directed links (output ports) the VL's paths
// cross, in path order of first crossing.
func (v *VirtualLink) Links() []PortID {
	seen := map[PortID]bool{}
	var out []PortID
	for _, path := range v.Paths {
		for k := 0; k+1 < len(path); k++ {
			id := PortID{From: path[k], To: path[k+1]}
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// LinkLoads returns, for every directed link some VL path crosses, the
// aggregate long-term contract rate Σ s_max/BAG in bits/us, computed
// from the paths directly — no derived port graph needed, so it works
// on configurations the structural checks reject. It is the batch form
// of the bookkeeping configgen's admission gate maintains incrementally
// while placing VLs, and feeds the AFDX013 lint analyzer. VLs with a
// non-positive BAG or frame size are skipped — the contract
// diagnostics (AFDX004/AFDX005) own those defects.
func (n *Network) LinkLoads() map[PortID]float64 {
	loads := map[PortID]float64{}
	for _, vl := range n.VLs {
		if vl == nil || vl.BAGMs <= 0 || vl.SMaxBytes <= 0 {
			continue
		}
		rho := vl.RhoBitsPerUs()
		for _, p := range vl.Links() {
			loads[p] += rho
		}
	}
	return loads
}

// UtilizationReport lists, for every port, the aggregate long-term rate
// of its flows relative to the link rate. Ports above 1.0 are unstable
// and make every worst-case analysis diverge.
func (pg *PortGraph) UtilizationReport() map[PortID]float64 {
	u := map[PortID]float64{}
	for id, p := range pg.Ports {
		sum := 0.0
		for _, f := range p.Flows {
			sum += f.VL.RhoBitsPerUs()
		}
		u[id] = sum / p.RateBitsPerUs
	}
	return u
}
