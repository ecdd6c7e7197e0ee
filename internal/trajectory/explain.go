package trajectory

import (
	"context"
	"fmt"
	"io"

	"afdx/internal/afdx"
	"afdx/internal/netcalc"
	"afdx/internal/obs"
)

// Explanation decomposes one path's trajectory bound into the terms the
// flat engine summed at the critical offset it found — the
// human-readable witness a certification reviewer checks. The parts
// equal the bound bit for bit, in the engine's association:
//
//	DelayUs == InterferenceUs + TransitionUs + LatencyUs - CriticalT
//
// InterferenceUs is the Us of the Interference groups summed in order,
// and TransitionUs the CUs of the Transitions summed in order.
type Explanation struct {
	Path      afdx.PathID
	DelayUs   float64
	CriticalT float64
	// Interference holds the groups in the order the engine sums them:
	// serialization groups by (first port, input link) with grouping,
	// one single-member group per interfering flow, in VL order,
	// without.
	Interference   []InterferenceGroup
	InterferenceUs float64
	Transitions    []TransitionTerm
	TransitionUs   float64
	LatencyUs      float64
}

// InterferenceGroup is one summand of the interference term: the flows
// that first meet the path at Port through the same input link.
type InterferenceGroup struct {
	Port      afdx.PortID
	InputLink string // "" for flows sourced at Port
	Members   []Member
	groupTerm
}

// groupTerm is a group's arithmetic at the critical offset, as the
// engine computes it (groupAt). With grouping, FullUs = Σ (Frames−1)·C
// counts every frame after each member's first, FirstUs = Σ C one first
// frame per member, and CapUs = maxC + t·ratio is the serialization cap
// on the first frames (0 when the engine does not serialize the group:
// one flow sourced at Port); Capped reports CapUs < FirstUs. Without
// grouping a group is one flow, FullUs = Frames·C and FirstUs = CapUs
// = 0. Us is the summand: FullUs + FirstUs, or FullUs + CapUs when
// Capped.
type groupTerm struct {
	FullUs, FirstUs, CapUs float64
	Capped                 bool
	Us                     float64
}

// Member is one interfering flow at the critical offset.
type Member struct {
	VL     string
	Frames int     // N_j(t + A_ij)
	CUs    float64 // largest transmission time over the shared ports
	AUs    float64 // window alignment A_ij
}

// TransitionTerm is one "counted twice" packet bound.
type TransitionTerm struct {
	Port afdx.PortID
	CUs  float64
}

// Explain analyses one path and returns its decomposition.
func Explain(pg *afdx.PortGraph, pid afdx.PathID, opts Options) (*Explanation, error) {
	return ExplainCtx(context.Background(), pg, pid, opts, nil)
}

// ExplainCtx is Explain with the caller's context and NC result. Only
// the explained path is analysed, by the flat engine AnalyzeCtx runs,
// and the decomposition is read off that run at its critical offset, so
// DelayUs and CriticalT equal the path's Details entry of a full run.
// nc supplies the S_max prefix bounds exactly as in AnalyzeWithNCCtx
// (nil runs a private prefix analysis). Cancellation propagates into
// the busy-period and candidate loops, and an obs registry or tracer on
// ctx observes the run as it would a one-path analysis.
func ExplainCtx(ctx context.Context, pg *afdx.PortGraph, pid afdx.PathID, opts Options, nc *netcalc.Result) (*Explanation, error) {
	ctx, span := obs.StartSpan(ctx, "trajectory")
	defer span.End()
	a, err := newAnalyzer(ctx, pg, opts, nc)
	if err != nil {
		return nil, err
	}
	ex := &Explanation{Path: pid}
	if _, err := a.analyzePath(ctx, pid, ex); err != nil {
		return nil, err
	}
	return ex, nil
}

// Render writes the explanation as text.
func (ex *Explanation) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "trajectory bound for %v: %.2f us (critical offset t = %.2f us)\n",
		ex.Path, ex.DelayUs, ex.CriticalT); err != nil {
		return err
	}
	fmt.Fprintf(w, "interference (each flow once, at its first shared port): %.2f us\n", ex.InterferenceUs)
	for _, g := range ex.Interference {
		link := g.InputLink
		if link == "" {
			link = "(source)"
		}
		first := ""
		switch {
		case g.Capped:
			first = fmt.Sprintf(" + first %.2f capped to %.2f", g.FirstUs, g.CapUs)
		case g.CapUs > 0:
			first = fmt.Sprintf(" + first %.2f (cap %.2f)", g.FirstUs, g.CapUs)
		case g.FirstUs > 0:
			first = fmt.Sprintf(" + first %.2f", g.FirstUs)
		}
		fmt.Fprintf(w, "  at %-10v via %-8s: %.2f us = full %.2f%s\n", g.Port, link, g.Us, g.FullUs, first)
		for _, m := range g.Members {
			fmt.Fprintf(w, "    %-8s %d frame(s) x %.2f us (A=%.2f)\n", m.VL, m.Frames, m.CUs, m.AUs)
		}
	}
	fmt.Fprintf(w, "transition terms (busy-period bridging packets): %.2f us\n", ex.TransitionUs)
	for _, tr := range ex.Transitions {
		fmt.Fprintf(w, "  at %-10v: %.2f us\n", tr.Port, tr.CUs)
	}
	fmt.Fprintf(w, "technological latencies: %.2f us\n", ex.LatencyUs)
	_, err := fmt.Fprintf(w, "bound = %.2f + %.2f + %.2f - %.2f (t) = %.2f us\n",
		ex.InterferenceUs, ex.TransitionUs, ex.LatencyUs, ex.CriticalT, ex.DelayUs)
	return err
}
