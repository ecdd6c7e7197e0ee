// Package incremental is the what-if layer: a Session holds a working
// copy of a configuration and its port graph, applies Deltas — VL added
// or removed, BAG / s_max / priority changed, path rerouted — as atomic
// batches, and analyses each round cold. A round runs WCNC once and
// hands that result to the trajectory engine as its S_max prefix
// bounds (trajectory.AnalyzeWithNCCtx), so every round is bit-identical
// to cold engine runs on the same configuration, at every worker count
// (the contract the served-parity invariant enforces over the wire).
package incremental

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"afdx/internal/afdx"
)

// Op names one kind of configuration delta.
type Op string

// The delta operations. The string values double as the first token of
// the CLI command syntax (see ParseDelta).
const (
	// OpSetBAG sets a VL's BAG in milliseconds.
	OpSetBAG Op = "bag"
	// OpSetSMax sets a VL's maximum frame size in bytes (s_min is
	// clamped down when it would exceed the new s_max, mirroring the
	// conformance oracle's metamorphic mutation).
	OpSetSMax Op = "smax"
	// OpSetPriority sets a VL's static priority level.
	OpSetPriority Op = "priority"
	// OpRemoveVL removes a VL.
	OpRemoveVL Op = "drop"
	// OpAddVL adds a VL (the full VirtualLink rides in Delta.Add).
	OpAddVL Op = "add"
	// OpReroute replaces a VL's multicast path set.
	OpReroute Op = "reroute"
)

// Delta is one configuration mutation. Only the fields of the selected
// Op are read.
type Delta struct {
	Op Op     `json:"op"`
	VL string `json:"vl,omitempty"`
	// BAGMs is the new BAG (OpSetBAG).
	BAGMs float64 `json:"bagMs,omitempty"`
	// SMaxBytes is the new maximum frame size (OpSetSMax).
	SMaxBytes int `json:"sMaxBytes,omitempty"`
	// Priority is the new priority level (OpSetPriority).
	Priority int `json:"priority,omitempty"`
	// Paths is the new multicast path set (OpReroute).
	Paths [][]string `json:"paths,omitempty"`
	// Add is the VL to insert (OpAddVL).
	Add *afdx.VirtualLink `json:"add,omitempty"`
}

func (d Delta) String() string {
	switch d.Op {
	case OpSetBAG:
		return fmt.Sprintf("bag %s %g", d.VL, d.BAGMs)
	case OpSetSMax:
		return fmt.Sprintf("smax %s %d", d.VL, d.SMaxBytes)
	case OpSetPriority:
		return fmt.Sprintf("priority %s %d", d.VL, d.Priority)
	case OpRemoveVL:
		return "drop " + d.VL
	case OpAddVL:
		if d.Add != nil {
			return "add " + d.Add.ID
		}
		return "add <nil>"
	case OpReroute:
		parts := make([]string, len(d.Paths))
		for i, p := range d.Paths {
			parts[i] = strings.Join(p, ",")
		}
		return fmt.Sprintf("reroute %s %s", d.VL, strings.Join(parts, " "))
	}
	return string(d.Op)
}

// ParseDelta parses the compact command syntax used by afdx-bounds'
// -delta flag and what-if input:
//
//	bag <vl> <ms>            set the VL's BAG
//	smax <vl> <bytes>        set the VL's maximum frame size
//	priority <vl> <level>    set the VL's priority level
//	drop <vl>                remove the VL
//	reroute <vl> <path> ...  replace the path set; each path is a
//	                         comma-separated node sequence
//	add <json>               add a VL given as one-line VirtualLink JSON
func ParseDelta(s string) (Delta, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return Delta{}, fmt.Errorf("incremental: empty delta")
	}
	bad := func(want string) (Delta, error) {
		return Delta{}, fmt.Errorf("incremental: %q: want %q", s, want)
	}
	switch Op(fields[0]) {
	case OpSetBAG:
		if len(fields) != 3 {
			return bad("bag <vl> <ms>")
		}
		// ParseFloat accepts NaN and Inf; neither is a BAG, and NaN
		// would not survive a String round trip.
		ms, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || math.IsNaN(ms) || math.IsInf(ms, 0) {
			return bad("bag <vl> <ms>")
		}
		return Delta{Op: OpSetBAG, VL: fields[1], BAGMs: ms}, nil
	case OpSetSMax:
		if len(fields) != 3 {
			return bad("smax <vl> <bytes>")
		}
		b, err := strconv.Atoi(fields[2])
		if err != nil {
			return bad("smax <vl> <bytes>")
		}
		return Delta{Op: OpSetSMax, VL: fields[1], SMaxBytes: b}, nil
	case OpSetPriority:
		if len(fields) != 3 {
			return bad("priority <vl> <level>")
		}
		p, err := strconv.Atoi(fields[2])
		if err != nil {
			return bad("priority <vl> <level>")
		}
		return Delta{Op: OpSetPriority, VL: fields[1], Priority: p}, nil
	case OpRemoveVL:
		if len(fields) != 2 {
			return bad("drop <vl>")
		}
		return Delta{Op: OpRemoveVL, VL: fields[1]}, nil
	case OpReroute:
		if len(fields) < 3 {
			return bad("reroute <vl> <path> [<path> ...]")
		}
		paths := make([][]string, 0, len(fields)-2)
		for _, f := range fields[2:] {
			path := strings.Split(f, ",")
			if len(path) < 2 {
				return bad("reroute <vl> <node,node,...> (paths need at least two nodes)")
			}
			paths = append(paths, path)
		}
		return Delta{Op: OpReroute, VL: fields[1], Paths: paths}, nil
	case OpAddVL:
		raw := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(s), string(OpAddVL)))
		var vl afdx.VirtualLink
		if err := json.Unmarshal([]byte(raw), &vl); err != nil {
			return Delta{}, fmt.Errorf("incremental: add: parsing VirtualLink JSON: %w", err)
		}
		return Delta{Op: OpAddVL, Add: &vl}, nil
	}
	return Delta{}, fmt.Errorf("incremental: unknown delta op %q (want bag|smax|priority|drop|reroute|add)", fields[0])
}

// applyDelta mutates n in place. Callers (Session.Apply) mutate a
// clone and swap only after the whole batch validates.
func applyDelta(n *afdx.Network, d Delta) error {
	find := func(id string) (*afdx.VirtualLink, error) {
		if v := n.VL(id); v != nil {
			return v, nil
		}
		return nil, fmt.Errorf("incremental: %s: unknown VL %q", d.Op, id)
	}
	switch d.Op {
	case OpSetBAG:
		v, err := find(d.VL)
		if err != nil {
			return err
		}
		v.BAGMs = d.BAGMs
	case OpSetSMax:
		v, err := find(d.VL)
		if err != nil {
			return err
		}
		v.SMaxBytes = d.SMaxBytes
		if v.SMinBytes > v.SMaxBytes {
			v.SMinBytes = v.SMaxBytes
		}
	case OpSetPriority:
		v, err := find(d.VL)
		if err != nil {
			return err
		}
		v.Priority = d.Priority
	case OpRemoveVL:
		if len(n.VLs) <= 1 {
			return fmt.Errorf("incremental: drop %s: cannot remove the last VL", d.VL)
		}
		for i, v := range n.VLs {
			if v.ID == d.VL {
				n.VLs = append(n.VLs[:i], n.VLs[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("incremental: drop: unknown VL %q", d.VL)
	case OpAddVL:
		if d.Add == nil {
			return fmt.Errorf("incremental: add: missing VirtualLink payload")
		}
		if n.VL(d.Add.ID) != nil {
			return fmt.Errorf("incremental: add: VL %q already exists", d.Add.ID)
		}
		vl := *d.Add
		vl.Paths = clonePaths(d.Add.Paths)
		n.VLs = append(n.VLs, &vl)
	case OpReroute:
		v, err := find(d.VL)
		if err != nil {
			return err
		}
		if len(d.Paths) == 0 {
			return fmt.Errorf("incremental: reroute %s: empty path set", d.VL)
		}
		v.Paths = clonePaths(d.Paths)
	default:
		return fmt.Errorf("incremental: unknown delta op %q", d.Op)
	}
	return nil
}

func clonePaths(paths [][]string) [][]string {
	out := make([][]string, len(paths))
	for i, p := range paths {
		out[i] = append([]string(nil), p...)
	}
	return out
}
