package trajectory

import (
	"context"
	"fmt"
	"math"
	"sort"

	"afdx/internal/afdx"
	"afdx/internal/netcalc"
	"afdx/internal/parallel"
)

// This file is the reference implementation of the per-path hot loop:
// the engine exactly as it shipped before the flat-index rework
// (flat.go), kept so the flattened hot path can be proven bit-identical
// against it. CHANGES.md records the flat path's measured speed-up
// over this one.
//
// The reference is not dead code guarded by faith: analyzeReference
// drives it from the differential property tests (flat_test.go), which
// pin PathDetail equality — delay, busy period, critical offset,
// candidate count — bit for bit across the golden corpus and generated
// configurations at every worker count. Behavioural fixes that are
// part of the engine's semantics (the candidateOffsets enumeration
// window) live in trajectory.go and are shared by both
// implementations; everything that is purely a data layout or
// scheduling choice differs.

// analyzeReference runs the full analysis through the reference
// (pre-flattening) hot path. Test entry point only.
func analyzeReference(ctx context.Context, pg *afdx.PortGraph, opts Options) (*Result, error) {
	a, err := newAnalyzerWith(ctx, pg, opts, nil, true)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Opts:       opts,
		PathDelays: map[afdx.PathID]float64{},
		Details:    map[afdx.PathID]PathDetail{},
	}
	paths := pg.Net.AllPaths()
	dets := make([]PathDetail, len(paths))
	err = parallel.ForEachCtx(ctx, opts.Parallel, len(paths), func(i int) error {
		det, err := a.analyzePath(ctx, paths[i])
		dets[i] = det
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, pid := range paths {
		res.PathDelays[pid] = dets[i].DelayUs
		res.Details[pid] = dets[i]
	}
	return res, nil
}

// analyzePortSeqRef is the reference per-path loop: map/string-keyed
// interference sets, per-candidate group partitions, per-call busy
// periods.
func (a *analyzer) analyzePortSeqRef(ctx context.Context, vl *afdx.VirtualLink, ports []afdx.PortID) (PathDetail, error) {
	if err := ctx.Err(); err != nil {
		return PathDetail{}, fmt.Errorf("trajectory: analysis cancelled: %w", err)
	}
	inter, err := a.interferenceSet(vl, ports)
	if err != nil {
		return PathDetail{}, err
	}
	a.m.interferers.Observe(int64(len(inter)))

	// Constant terms: technological latencies and the transition
	// ("counted twice") packets.
	lSum := 0.0
	for _, h := range ports {
		lSum += a.pg.Ports[h].LatencyUs
	}
	deltaSum := a.transitionSum(ports, nil)

	busy, rounds, err := a.sourceBusyPeriod(ctx, ports[0])
	if err != nil {
		return PathDetail{}, err
	}
	a.m.busyFixes.Inc()
	a.m.busyIters.Add(int64(rounds))
	a.m.busyRounds.Observe(int64(rounds))

	cands, err := candidateOffsets(ctx, inter, busy)
	if err != nil {
		return PathDetail{}, err
	}
	a.m.candidates.Add(int64(len(cands)))
	best, bestT := math.Inf(-1), 0.0
	for i, t := range cands {
		// Candidate sets grow with busy period / BAG ratios; poll for
		// cancellation without paying a context lookup per offset.
		if i&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return PathDetail{}, fmt.Errorf("trajectory: candidate evaluation cancelled: %w", err)
			}
		}
		v := a.interferenceAt(inter, t) + deltaSum + lSum - t
		if v > best {
			best, bestT = v, t
		}
	}
	return PathDetail{
		DelayUs:        best,
		BusyPeriodUs:   busy,
		CriticalT:      bestT,
		NumCandidates:  len(cands),
		NumInterferers: len(inter),
	}, nil
}

// interferenceSet builds the interferer list of a path: every VL sharing
// at least one of its ports (including the analyzed VL itself), with the
// first shared port, the input link there, and the window alignment A_ij.
func (a *analyzer) interferenceSet(vl *afdx.VirtualLink, ports []afdx.PortID) ([]interferer, error) {
	// Minimum arrival times of the analyzed flow at each of its ports
	// (per-port rates: real configurations mix link speeds).
	sMin := make(map[afdx.PortID]float64, len(ports))
	acc := 0.0
	for _, h := range ports {
		sMin[h] = acc
		acc += vl.CMinUs(a.pg.Ports[h].RateBitsPerUs) + a.pg.Ports[h].LatencyUs
	}
	var inter []interferer
	idx := map[string]int{}
	// NC prefix-table hits are counted locally and flushed in one Add:
	// a per-lookup atomic increment from every worker contends on one
	// cache line and alone blows the instrumentation overhead budget.
	ncLookups := int64(0)
	for _, h := range ports {
		port := a.pg.Ports[h]
		for _, f := range port.Flows {
			c := f.VL.CMaxUs(port.RateBitsPerUs)
			if i, ok := idx[f.VL.ID]; ok {
				// Conservative with heterogeneous rates: charge the
				// flow's largest transmission time over the shared ports.
				if c > inter[i].cUs {
					inter[i].cUs = c
				}
				continue
			}
			sMaxJ, ok := a.ncPrefix[netcalc.FlowPortKey{VL: f.VL.ID, Port: h}]
			if !ok {
				a.m.ncMiss.Inc()
				return nil, fmt.Errorf("trajectory: no NC prefix bound for VL %s at %s", f.VL.ID, h)
			}
			ncLookups++
			ratio := 1.0
			if f.Prev != "" {
				if in := a.pg.Ports[afdx.PortID{From: f.Prev, To: h.From}]; in != nil {
					ratio = in.RateBitsPerUs / port.RateBitsPerUs
				}
			}
			idx[f.VL.ID] = len(inter)
			inter = append(inter, interferer{
				vl:       f.VL,
				first:    h,
				prev:     f.Prev,
				cUs:      c,
				aUs:      sMaxJ - sMin[h],
				serRatio: ratio,
			})
		}
	}
	if ncLookups > 0 {
		a.m.ncHits.Add(ncLookups)
	}
	sort.Slice(inter, func(i, j int) bool { return inter[i].vl.ID < inter[j].vl.ID })
	return inter, nil
}

// interferenceAt evaluates the interference term at offset t, applying
// the serialization cap per (first port, input link) group when grouping
// is enabled.
func (a *analyzer) interferenceAt(inter []interferer, t float64) float64 {
	if !a.opts.Grouping {
		sum := 0.0
		for _, it := range inter {
			sum += float64(frameCount(t+it.aUs, it.vl.BAGUs())) * it.cUs
		}
		return sum
	}
	type groupKey struct {
		port afdx.PortID
		prev string
	}
	groups := map[groupKey][]interferer{}
	for _, it := range inter {
		groups[groupKey{it.first, it.prev}] = append(groups[groupKey{it.first, it.prev}], it)
	}
	// Deterministic iteration order for float accumulation stability.
	keys := make([]groupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].port != keys[j].port {
			return keys[i].port.String() < keys[j].port.String()
		}
		return keys[i].prev < keys[j].prev
	})
	sum := 0.0
	for _, k := range keys {
		sum += a.groupContribution(groups[k], t, k.prev != "" || len(groups[k]) > 1)
	}
	return sum
}

// groupContribution bounds the workload of one serialization group at
// offset t. The first frame of each member arrives through the shared
// input link, so the group's first frames arrive back-to-back at best
// and their joint burst cannot exceed the largest member frame plus
// what the link carries during the emission offset window; subsequent
// frames (N_j > 1) are counted in full. Groups are never empty and
// frameCount never returns less than one, so every member contributes
// a first frame unconditionally.
//
// This is the leaky-bucket shaping of the paper's grouping technique
// (burst = largest frame of the group, rate = source link rate), exactly
// as the paper's Figure 4 scenario constructs it. Note that, like the
// published method, the cap ignores the upstream jitter spread between
// group members — a simplification later shown to make the enhanced
// trajectory approach slightly optimistic in corner cases (see
// DESIGN.md, "Known optimism of the grouped trajectory approach").
func (a *analyzer) groupContribution(group []interferer, t float64, serialized bool) float64 {
	full := 0.0
	firsts := 0.0
	maxC := 0.0
	for _, it := range group {
		n := frameCount(t+it.aUs, it.vl.BAGUs())
		full += float64(n-1) * it.cUs
		firsts += it.cUs
		if it.cUs > maxC {
			maxC = it.cUs
		}
	}
	if !serialized {
		return full + firsts
	}
	// The group's first frames arrive serialized on the input link: one
	// largest frame plus what the link carries over the offset window,
	// expressed in output transmission time (ratio = R_in / R_out). The
	// serialization ratio is a per-link quantity, identical across the
	// group by the invariant the flat index asserts at build time
	// (flatIndex.build); the first member speaks for all of them.
	capTime := maxC + t*group[0].serRatio
	if capTime < firsts {
		firsts = capTime
	}
	return full + firsts
}

// sourceBusyPeriod bounds the length of the busy period of the analyzed
// flow's source port (the range of the emission offset t) as the least
// fixpoint of the port's workload function.
//
// Feasibility is decided up front by remaining-capacity math: the
// workload is bounded by the linear envelope w(b) <= sumC + U*b with
// U the port utilization, so for U < 1 the least fixpoint sits below
// sumC/(1-U), while U >= 1 has no fixpoint at all and fails
// immediately (no iteration budget is burned discovering divergence).
// The fixpoint iteration itself is exact — it returns the same least
// fixpoint as a step-by-step scan — and terminates within the frame
// capacity of that bound: every non-final round queues at least one
// more whole frame, so rounds are capped by (bMax - w(0)) / minC.
//
// The second return value is the number of fixpoint rounds performed —
// the per-path iteration cost surfaced by the observability layer. The
// busy period is a pure function of the port alone (not of the path or
// the analyzed VL), which is exactly what lets the flat engine memoize
// it per port (flatPort.busy).
func (a *analyzer) sourceBusyPeriod(ctx context.Context, src afdx.PortID) (float64, int, error) {
	port := a.pg.Ports[src]
	sumC, minC, util := 0.0, math.Inf(1), 0.0
	for _, f := range port.Flows {
		c := f.VL.CMaxUs(port.RateBitsPerUs)
		sumC += c
		if c < minC {
			minC = c
		}
		util += c / f.VL.BAGUs()
	}
	//detcheck:allow DET004: dimensionless utilization guard, scale-free by construction
	if util >= 1-1e-12 {
		return 0, 0, fmt.Errorf("trajectory: busy period of port %s does not converge (port utilization %.9g >= 1)", src, util)
	}
	work := func(b float64) float64 {
		w := 0.0
		for _, f := range port.Flows {
			w += float64(frameCount(b, f.VL.BAGUs())) * f.VL.CMaxUs(port.RateBitsPerUs)
		}
		return w
	}
	return busyFixpoint(ctx, src, work, sumC, minC, util)
}
