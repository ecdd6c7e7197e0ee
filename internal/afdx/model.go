// Package afdx models an AFDX (ARINC 664 part 7) network: end systems,
// switches, full-duplex links, and statically-routed multicast Virtual
// Links (VLs) with their traffic contract (BAG, s_min, s_max).
//
// The model is purely structural; the delay analyses live in
// internal/netcalc (Network Calculus) and internal/trajectory (Trajectory
// approach), and the behavioural reference in internal/sim.
package afdx

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Physical constants of the AFDX standard and of the configurations
// studied in the paper.
const (
	// DefaultLinkRateMbps is the 100 Mb/s AFDX link rate.
	DefaultLinkRateMbps = 100
	// DefaultTechLatencyUs is the technological latency of a switch
	// output port (16 us in the companion papers of the studied group).
	DefaultTechLatencyUs = 16
	// MinFrameBytes and MaxFrameBytes bound Ethernet frame sizes.
	MinFrameBytes = 64
	MaxFrameBytes = 1518
	// MinBAGMs and MaxBAGMs bound the ARINC 664 Bandwidth Allocation
	// Gap; valid BAGs are the powers of two in between (in milliseconds).
	MinBAGMs = 1
	MaxBAGMs = 128
)

// Params carries the physical parameters shared by every analysis.
type Params struct {
	// LinkRateMbps is the transmission rate of every link, in Mb/s.
	LinkRateMbps float64 `json:"linkRateMbps"`
	// SwitchLatencyUs is the technological latency of every switch
	// output port, in microseconds.
	SwitchLatencyUs float64 `json:"switchLatencyUs"`
	// SourceLatencyUs is the technological latency of an end-system
	// output port, in microseconds.
	SourceLatencyUs float64 `json:"sourceLatencyUs"`
}

// DefaultParams returns the parameters used throughout the paper:
// 100 Mb/s links and a 16 us technological latency per output port.
func DefaultParams() Params {
	return Params{
		LinkRateMbps:    DefaultLinkRateMbps,
		SwitchLatencyUs: DefaultTechLatencyUs,
		SourceLatencyUs: DefaultTechLatencyUs,
	}
}

// RateBitsPerUs converts the link rate to bits per microsecond, the unit
// system used by all analyses (1 Mb/s == 1 bit/us).
func (p Params) RateBitsPerUs() float64 { return p.LinkRateMbps }

// VirtualLink is an ARINC 664 Virtual Link: a unidirectional, statically
// routed multicast flow from one source end system to one or more
// destination end systems, sporadic with minimum inter-frame gap BAG and
// frame sizes within [SMinBytes, SMaxBytes].
type VirtualLink struct {
	// ID is the unique VL identifier.
	ID string `json:"id"`
	// Source is the emitting end system (mono-transmitter rule).
	Source string `json:"source"`
	// BAGMs is the Bandwidth Allocation Gap in milliseconds: the minimum
	// delay between two consecutive frames of the VL at the source.
	BAGMs float64 `json:"bagMs"`
	// SMaxBytes and SMinBytes bound the frame size (MAC level).
	SMaxBytes int `json:"sMaxBytes"`
	SMinBytes int `json:"sMinBytes"`
	// Paths holds one node sequence per destination, from the source end
	// system through the crossed switches to the destination end system.
	// The union of the paths must form a tree rooted at the source.
	Paths [][]string `json:"paths"`
	// Priority is the static priority level of the VL in switch output
	// ports: 0 (default) is the highest; service is non-preemptive.
	// The paper's configurations are single-level (plain FIFO); ARINC
	// 664 switches offer a high/low level, analysed by the companion
	// papers and supported by the Network Calculus engine and the
	// simulator (the Trajectory engine is FIFO-only, like the paper's).
	Priority int `json:"priority,omitempty"`
}

// BAGUs returns the BAG in microseconds.
func (v *VirtualLink) BAGUs() float64 { return v.BAGMs * 1000 }

// SMaxBits returns the maximum frame size in bits.
func (v *VirtualLink) SMaxBits() float64 { return float64(v.SMaxBytes) * 8 }

// SMinBits returns the minimum frame size in bits.
func (v *VirtualLink) SMinBits() float64 { return float64(v.SMinBytes) * 8 }

// RhoBitsPerUs returns the long-term rate of the VL's leaky-bucket
// envelope: s_max / BAG, in bits per microsecond.
func (v *VirtualLink) RhoBitsPerUs() float64 { return v.SMaxBits() / v.BAGUs() }

// CMaxUs returns the transmission time of a maximum-size frame on a link
// of the given rate (bits/us), in microseconds.
func (v *VirtualLink) CMaxUs(rateBitsPerUs float64) float64 {
	return v.SMaxBits() / rateBitsPerUs
}

// CMinUs returns the transmission time of a minimum-size frame.
func (v *VirtualLink) CMinUs(rateBitsPerUs float64) float64 {
	return v.SMinBits() / rateBitsPerUs
}

// LinkRate overrides the default link rate for one directed link.
type LinkRate struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	Mbps float64 `json:"mbps"`
}

// Network is a static AFDX configuration: the node sets, the shared
// physical parameters, and the Virtual Links with their routing.
// Links are implied by the VL paths (full duplex, one per ordered node
// pair actually used). LinkRates optionally assigns individual rates to
// specific links (real AFDX networks mix 10 and 100 Mb/s segments);
// unlisted links run at Params.LinkRateMbps.
type Network struct {
	Name       string         `json:"name"`
	Params     Params         `json:"params"`
	EndSystems []string       `json:"endSystems"`
	Switches   []string       `json:"switches"`
	LinkRates  []LinkRate     `json:"linkRates,omitempty"`
	VLs        []*VirtualLink `json:"vls"`
}

// LinkRateBitsPerUs returns the rate of the directed link from -> to in
// bits per microsecond, honouring per-link overrides.
func (n *Network) LinkRateBitsPerUs(from, to string) float64 {
	for _, lr := range n.LinkRates {
		if lr.From == from && lr.To == to {
			return lr.Mbps
		}
	}
	return n.Params.RateBitsPerUs()
}

// VL returns the virtual link with the given ID, or nil.
func (n *Network) VL(id string) *VirtualLink {
	for _, v := range n.VLs {
		if v.ID == id {
			return v
		}
	}
	return nil
}

// IsEndSystem reports whether id names an end system of the network.
func (n *Network) IsEndSystem(id string) bool {
	for _, e := range n.EndSystems {
		if e == id {
			return true
		}
	}
	return false
}

// IsSwitch reports whether id names a switch of the network.
func (n *Network) IsSwitch(id string) bool {
	for _, s := range n.Switches {
		if s == id {
			return true
		}
	}
	return false
}

// PathID identifies one end-to-end path of a VL (a VL has one path per
// destination end system).
type PathID struct {
	VL      string // VL identifier
	PathIdx int    // index into VirtualLink.Paths
}

func (p PathID) String() string { return p.VL + "/" + strconv.Itoa(p.PathIdx) }

// ParsePathArg parses the command-line path form, String's output: a
// vl/pathIdx pair with a non-negative decimal index, or a bare vl
// meaning its path 0. Whether the path exists is Network.HasPath's
// question.
func ParsePathArg(s string) (PathID, error) {
	vl, idx := s, "0"
	if i := strings.LastIndex(s, "/"); i >= 0 {
		vl, idx = s[:i], s[i+1:]
	}
	n, err := strconv.Atoi(idx)
	if vl == "" || err != nil || n < 0 {
		return PathID{}, fmt.Errorf("%q is not a path (want vl/pathIdx, e.g. v1/0)", s)
	}
	return PathID{VL: vl, PathIdx: n}, nil
}

// HasPath reports whether the network has the path.
func (n *Network) HasPath(id PathID) bool {
	vl := n.VL(id.VL)
	return vl != nil && id.PathIdx < len(vl.Paths)
}

// SortPathIDs orders path identifiers by (VL, PathIdx) — the canonical
// iteration order whenever per-path results gathered from a map must be
// accumulated or emitted deterministically (DET001/DET003).
func SortPathIDs(ids []PathID) {
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].VL != ids[j].VL {
			return ids[i].VL < ids[j].VL
		}
		return ids[i].PathIdx < ids[j].PathIdx
	})
}

// AllPaths enumerates every (VL, path) pair of the network, in
// deterministic order.
func (n *Network) AllPaths() []PathID {
	count := 0
	for _, v := range n.VLs {
		count += len(v.Paths)
	}
	ps := make([]PathID, 0, count)
	for _, v := range n.VLs {
		for i := range v.Paths {
			ps = append(ps, PathID{VL: v.ID, PathIdx: i})
		}
	}
	return ps
}

// ValidationMode selects how strictly Validate enforces the ARINC 664
// contract parameters.
type ValidationMode int

const (
	// Strict enforces power-of-two BAGs within [1,128] ms and Ethernet
	// frame bounds. Use for real configurations.
	Strict ValidationMode = iota
	// Relaxed only enforces positivity of BAG and frame sizes, allowing
	// the parametric sweeps of the paper's section III-B to explore
	// values outside the standard set.
	Relaxed
)

// Validation is implemented in diagnostics.go: Network.Validate composes
// the coded diagnostic collectors (StructuralDiagnostics) and returns the
// first Error-severity finding.

func isPowerOfTwo(f float64) bool {
	if f <= 0 || f != math.Trunc(f) {
		return false
	}
	k := int(f)
	return k&(k-1) == 0
}

// Stats summarises a configuration; used by reports and by the
// industrial-configuration generator tests.
type Stats struct {
	NumEndSystems int
	NumSwitches   int
	NumVLs        int
	NumPaths      int
	MaxPathLen    int // in crossed switches
	BAGHistogram  map[float64]int
	SMaxHistogram map[int]int
}

// ComputeStats summarises the network.
func (n *Network) ComputeStats() Stats {
	st := Stats{
		NumEndSystems: len(n.EndSystems),
		NumSwitches:   len(n.Switches),
		NumVLs:        len(n.VLs),
		BAGHistogram:  map[float64]int{},
		SMaxHistogram: map[int]int{},
	}
	for _, v := range n.VLs {
		st.NumPaths += len(v.Paths)
		st.BAGHistogram[v.BAGMs]++
		st.SMaxHistogram[v.SMaxBytes]++
		for _, p := range v.Paths {
			if sw := len(p) - 2; sw > st.MaxPathLen {
				st.MaxPathLen = sw
			}
		}
	}
	return st
}

func (st Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "end systems: %d, switches: %d, VLs: %d, paths: %d, max hops: %d switches\n",
		st.NumEndSystems, st.NumSwitches, st.NumVLs, st.NumPaths, st.MaxPathLen)
	bags := make([]float64, 0, len(st.BAGHistogram))
	for bag := range st.BAGHistogram {
		bags = append(bags, bag)
	}
	sort.Float64s(bags)
	b.WriteString("BAG (ms):")
	for _, bag := range bags {
		fmt.Fprintf(&b, " %g:%d", bag, st.BAGHistogram[bag])
	}
	return b.String()
}
