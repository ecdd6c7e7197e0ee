package trajectory

import (
	"context"
	"fmt"
	"math"
	"sort"

	"afdx/internal/afdx"
	"afdx/internal/core/tol"
	"afdx/internal/parallel"
)

// This file is the reference implementation of the per-path hot loop:
// the engine exactly as it shipped before the flat-index rework
// (flat.go), kept in the tests so the flattened hot path can be proven
// bit-identical against it. CHANGES.md records the flat path's measured
// speed-up over this one.
//
// analyzeReference drives it from the differential property tests
// (flat_test.go), which pin PathDetail equality — delay, busy period,
// critical offset, candidate count — bit for bit across the golden
// corpus and generated configurations at every worker count. A
// reference analyzer holds no flat index, so the reference rebuilds
// every per-path quantity from the port graph: interference set,
// serialization groups, busy period, candidate offsets and the
// receiving-node transition maxima. It shares with the flat engine only
// the semantics both must agree on: frameCount, busyFixpoint and
// maxSharedFrameTime (trajectory.go).

// newReference builds a reference analyzer: the production constructor
// with the flat index dropped, so a read of the flat engine's
// precomputed state from the reference panics instead of silently
// tying the two engines together.
func newReference(ctx context.Context, pg *afdx.PortGraph, opts Options) (*analyzer, error) {
	a, err := newAnalyzer(ctx, pg, opts, nil)
	if err != nil {
		return nil, err
	}
	a.flat = nil
	return a, nil
}

// analyzeReference runs the full analysis through the reference
// (pre-flattening) hot path.
func analyzeReference(ctx context.Context, pg *afdx.PortGraph, opts Options) (*Result, error) {
	a, err := newReference(ctx, pg, opts)
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
		det, err := a.analyzePathRef(ctx, paths[i])
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

// analyzePathRef is analyzePath on the reference hot path.
func (a *analyzer) analyzePathRef(ctx context.Context, pid afdx.PathID) (PathDetail, error) {
	ports := a.pg.PathPorts(pid)
	vl := a.pg.VL(pid.VL)
	if len(ports) == 0 || vl == nil {
		return PathDetail{}, fmt.Errorf("trajectory: unknown path %v", pid)
	}
	a.m.paths.Inc()
	return a.analyzePortSeqRef(ctx, vl, ports)
}

// analyzePortSeqRef is the reference per-path loop: map/string-keyed
// interference sets, per-candidate group partitions, per-call busy
// periods.
func (a *analyzer) analyzePortSeqRef(ctx context.Context, vl *afdx.VirtualLink, ports []afdx.PortID) (PathDetail, error) {
	if err := ctx.Err(); err != nil {
		return PathDetail{}, fmt.Errorf("trajectory: analysis cancelled: %w", err)
	}
	inter := a.interferenceSet(vl, ports)
	a.m.interferers.Observe(int64(len(inter)))

	// Constant terms: technological latencies and the transition
	// ("counted twice") packets.
	lSum := 0.0
	for _, h := range ports {
		lSum += a.pg.Ports[h].LatencyUs
	}
	deltaSum := a.transitionSumRef(ports)

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

// transitionSumRef is transitionSum without the flat index: the
// receiving-node maximum is scanned over the port's flows.
func (a *analyzer) transitionSumRef(ports []afdx.PortID) float64 {
	deltaSum := 0.0
	if a.opts.SharedTransition {
		for k := 0; k+1 < len(ports); k++ {
			deltaSum += a.maxSharedFrameTime(ports[k], ports[k+1])
		}
		return deltaSum
	}
	for k := 1; k < len(ports); k++ {
		p := a.pg.Ports[ports[k]]
		m := 0.0
		for _, f := range p.Flows {
			if c := f.VL.CMaxUs(p.RateBitsPerUs); c > m {
				m = c
			}
		}
		deltaSum += m
	}
	return deltaSum
}

// interferer is one flow of the interference set of a path.
type interferer struct {
	vl    *afdx.VirtualLink
	first afdx.PortID // first port shared with the analyzed path
	prev  string      // input node of the flow at that port ("" = source)
	cUs   float64     // max transmission time over the shared ports
	aUs   float64     // window alignment A_ij
	// serRatio is input-link rate / first-port rate: the serialization
	// cap of a group grows with the emission window scaled by it.
	serRatio float64
}

// interferenceSet builds the interferer list of a path: every VL sharing
// at least one of its ports (including the analyzed VL itself), with the
// first shared port, the input link there, and the window alignment A_ij.
func (a *analyzer) interferenceSet(vl *afdx.VirtualLink, ports []afdx.PortID) []interferer {
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
	for _, h := range ports {
		port := a.pg.Ports[h]
		for k, f := range port.Flows {
			c := f.VL.CMaxUs(port.RateBitsPerUs)
			if i, ok := idx[f.VL.ID]; ok {
				// Conservative with heterogeneous rates: charge the
				// flow's largest transmission time over the shared ports.
				if c > inter[i].cUs {
					inter[i].cUs = c
				}
				continue
			}
			sMaxJ := a.nc.Ports[h].Flows[k].PrefixUs
			prev := port.Groups[f.Group].Prev
			ratio := 1.0
			if prev != "" {
				if in := a.pg.Ports[afdx.PortID{From: prev, To: h.From}]; in != nil {
					ratio = in.RateBitsPerUs / port.RateBitsPerUs
				}
			}
			idx[f.VL.ID] = len(inter)
			inter = append(inter, interferer{
				vl:       f.VL,
				first:    h,
				prev:     prev,
				cUs:      c,
				aUs:      sMaxJ - sMin[h],
				serRatio: ratio,
			})
		}
	}
	sort.Slice(inter, func(i, j int) bool { return inter[i].vl.ID < inter[j].vl.ID })
	return inter
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

// candidateOffsets enumerates the emission offsets where the objective
// can attain its maximum: t = 0 and every step point k*T_j - A_ij of an
// interferer inside the busy period. A long busy period over a short
// BAG yields thousands of step points per interferer, so the
// enumeration polls ctx and can be cancelled mid-port. All comparisons
// use the shared relative tolerance (tol): offsets scale with the busy
// period, which exceeds 1e6 us on large-BAG configurations where an
// absolute 1e-9 guard would fall below one ulp.
func candidateOffsets(ctx context.Context, inter []interferer, busy float64) ([]float64, error) {
	cands := []float64{0}
	for _, it := range inter {
		T := it.vl.BAGUs()
		// Step points t = k*T - A_ij need t > 0, i.e. k > A_ij/T, and
		// k >= 1 (N_j only jumps at whole windows). The tolerance is in
		// the k domain — relative to the ratio being rounded — so an
		// A_ij sitting a rounding error above an exact multiple of T
		// still starts at that multiple (the t > tol.At(t) filter below
		// then discards the t = 0 duplicate). The pre-fix code negated
		// the ratio (ceil(-A_ij/T)), which collapsed to the k = 1 clamp
		// for every positive A_ij — accidentally correct — but for
		// A_ij <= -T it started at ceil(|A_ij|/T), silently skipping
		// the first valid step points of early-arriving interferers and
		// with them, potentially, the busy-period maximum.
		start := math.Ceil(it.aUs/T - tol.At(it.aUs/T))
		if start < 1 {
			start = 1
		}
		for k, n := start, 0; ; k, n = k+1, n+1 {
			if n&8191 == 8191 {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("trajectory: candidate enumeration cancelled: %w", err)
				}
			}
			t := k*T - it.aUs
			if tol.Gt(t, busy) {
				break
			}
			if t > tol.At(t) {
				cands = append(cands, t)
			}
		}
	}
	sort.Float64s(cands)
	// Deduplicate within tolerance.
	out := cands[:0]
	for _, t := range cands {
		if len(out) == 0 || tol.Gt(t, out[len(out)-1]) {
			out = append(out, t)
		}
	}
	return out, nil
}
