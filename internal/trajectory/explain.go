package trajectory

import (
	"context"
	"fmt"
	"io"
	"sort"

	"afdx/internal/afdx"
	"afdx/internal/obs"
)

// Explanation decomposes one path's trajectory bound into its terms —
// the human-readable witness a certification reviewer checks.
type Explanation struct {
	Path         afdx.PathID
	DelayUs      float64
	CriticalT    float64
	Interference []InterferenceTerm
	Transitions  []TransitionTerm
	LatencyUs    float64
}

// InterferenceTerm is one interfering flow's contribution at the
// critical offset.
type InterferenceTerm struct {
	VL        string
	FirstPort afdx.PortID
	InputLink string // "" for source-port flows
	Frames    int
	CUs       float64
	AUs       float64
	// GroupCapped reports whether the serialization cap absorbed part of
	// this flow's group contribution.
	GroupCapped bool
}

// TransitionTerm is one "counted twice" packet bound.
type TransitionTerm struct {
	Port afdx.PortID
	CUs  float64
}

// Explain recomputes one path's bound and returns its decomposition.
// The sum of the parts equals the bound:
//
//	DelayUs = sum(interference, with group caps) + sum(transitions)
//	        + LatencyUs - CriticalT
func Explain(pg *afdx.PortGraph, pid afdx.PathID, opts Options) (*Explanation, error) {
	return ExplainCtx(context.Background(), pg, pid, opts)
}

// ExplainCtx is Explain with the caller's context threaded through the
// analysis and decomposition: cancellation propagates into the
// busy-period and candidate loops, and an obs registry or tracer on ctx
// observes the run. Only the explained path is analysed, by the same
// analyzer AnalyzeCtx builds, so its DelayUs and CriticalT equal the
// path's Details entry of a full run.
func ExplainCtx(ctx context.Context, pg *afdx.PortGraph, pid afdx.PathID, opts Options) (*Explanation, error) {
	ctx, span := obs.StartSpan(ctx, "trajectory")
	defer span.End()
	a, err := newAnalyzer(ctx, pg, opts)
	if err != nil {
		return nil, err
	}
	det, err := a.analyzePath(ctx, pid)
	if err != nil {
		return nil, err
	}
	vl := pg.VL(pid.VL)
	ports := pg.PathPorts(pid)
	inter, err := a.interferenceSet(ctx, vl, ports, nil)
	if err != nil {
		return nil, err
	}
	ex := &Explanation{Path: pid, DelayUs: det.DelayUs, CriticalT: det.CriticalT}
	t := det.CriticalT
	for _, it := range inter {
		n := frameCount(t+it.aUs, it.vl.BAGUs())
		ex.Interference = append(ex.Interference, InterferenceTerm{
			VL:        it.vl.ID,
			FirstPort: it.first,
			InputLink: it.prev,
			Frames:    n,
			CUs:       it.cUs,
			AUs:       it.aUs,
		})
	}
	// Mark group-capped terms: recompute the grouped sum and compare the
	// per-group raw first-frame total against the cap.
	if opts.Grouping {
		type gk struct {
			port afdx.PortID
			prev string
		}
		raw := map[gk]float64{}
		maxC := map[gk]float64{}
		ratio := map[gk]float64{}
		for _, it := range inter {
			if frameCount(t+it.aUs, it.vl.BAGUs()) == 0 {
				continue
			}
			k := gk{it.first, it.prev}
			raw[k] += it.cUs
			if it.cUs > maxC[k] {
				maxC[k] = it.cUs
			}
			ratio[k] = it.serRatio
		}
		for i := range ex.Interference {
			it := &ex.Interference[i]
			k := gk{it.FirstPort, it.InputLink}
			serialized := it.InputLink != "" || countGroup(inter, k.port, k.prev) > 1
			if serialized && raw[k] > maxC[k]+t*ratio[k] {
				it.GroupCapped = true
			}
		}
	}
	from, to := 1, len(ports)
	if opts.DeltaAtFirstNode {
		from, to = 0, len(ports)-1
	}
	if opts.SharedTransition {
		for k := 0; k+1 < len(ports); k++ {
			ex.Transitions = append(ex.Transitions, TransitionTerm{
				Port: ports[k+1], CUs: a.maxSharedFrameTime(ports[k], ports[k+1]),
			})
		}
	} else {
		for k := from; k < to; k++ {
			ex.Transitions = append(ex.Transitions, TransitionTerm{
				Port: ports[k], CUs: a.maxFrameTimeAt(ports[k]),
			})
		}
	}
	for _, h := range ports {
		ex.LatencyUs += pg.Ports[h].LatencyUs
	}
	sort.Slice(ex.Interference, func(i, j int) bool { return ex.Interference[i].VL < ex.Interference[j].VL })
	return ex, nil
}

func countGroup(inter []interferer, port afdx.PortID, prev string) int {
	n := 0
	for _, it := range inter {
		if it.first == port && it.prev == prev {
			n++
		}
	}
	return n
}

// Render writes the explanation as text.
func (ex *Explanation) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "trajectory bound for %v: %.2f us (critical offset t = %.2f us)\n",
		ex.Path, ex.DelayUs, ex.CriticalT); err != nil {
		return err
	}
	fmt.Fprintln(w, "interference (counted once, at first shared port):")
	for _, it := range ex.Interference {
		capped := ""
		if it.GroupCapped {
			capped = "  [serialization cap active]"
		}
		link := it.InputLink
		if link == "" {
			link = "(source)"
		}
		fmt.Fprintf(w, "  %-8s at %-10v via %-8s: %d frame(s) x %.2f us (A=%.2f)%s\n",
			it.VL, it.FirstPort, link, it.Frames, it.CUs, it.AUs, capped)
	}
	fmt.Fprintln(w, "transition terms (busy-period bridging packets):")
	for _, tr := range ex.Transitions {
		fmt.Fprintf(w, "  at %-10v: %.2f us\n", tr.Port, tr.CUs)
	}
	_, err := fmt.Fprintf(w, "technological latencies: %.2f us\n", ex.LatencyUs)
	return err
}
