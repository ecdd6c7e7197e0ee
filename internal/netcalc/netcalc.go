// Package netcalc implements the Worst-Case Network Calculus (WCNC)
// end-to-end delay analysis used for AFDX certification, as described in
// the paper and its companion references (Charara et al., ECRTS 2006;
// Grieu's thesis; Le Boudec & Thiran for the underlying theory),
// including the grouping (serialization) refinement.
//
// The analysis is holistic: output ports are processed in topological
// (feed-forward) order; at each port the delay bound is the horizontal
// deviation between the aggregate arrival curve of the competing flows
// and the port's rate-latency service curve, and each flow's envelope is
// then inflated by the port delay before being propagated downstream.
package netcalc

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"afdx/internal/afdx"
	"afdx/internal/lint"
	"afdx/internal/minplus"
	"afdx/internal/obs"
	"afdx/internal/parallel"
)

// Options selects analysis variants.
type Options struct {
	// Grouping enables the serialization refinement: flows entering a
	// switch through the same input link are jointly shaped by a leaky
	// bucket with burst = largest member frame and rate = link rate.
	// This is the "grouping technique" of the paper (Section II-B).
	Grouping bool
	// StairSteps, when positive, replaces each flow's leaky-bucket
	// envelope with its exact staircase arrival curve (shifted by the
	// accumulated upstream delay bound), truncated to that many exact
	// steps before falling back to the leaky bucket. This addresses the
	// pessimism source the paper names in section II-B ("envelopes are
	// used instead of the exact arrival curve"); it only bites when port
	// busy periods span several BAGs. Zero keeps the paper's leaky
	// buckets.
	StairSteps int
	// Parallel bounds the analysis worker pool: ports of the same
	// dependency rank are analysed concurrently by at most this many
	// goroutines (<= 0 selects GOMAXPROCS, 1 is strictly sequential).
	// Every worker count produces bit-identical results: each port's
	// bound is a pure function of its upstream ports' merged results,
	// and worker results are merged in canonical port order (see
	// DESIGN.md, "Concurrency and determinism").
	Parallel int
}

// DefaultOptions returns the configuration matching the paper's WCNC
// column: grouping enabled, leaky-bucket envelopes.
func DefaultOptions() Options { return Options{Grouping: true} }

// PortResult carries the per-output-port bounds: the delay bound (which
// every frame crossing the port experiences at most, from arrival at the
// port to complete transmission on the outgoing link) and the backlog
// bound used to dimension the port's FIFO buffer.
//
// On ports multiplexing several static-priority levels (ARINC 664
// switches offer a high/low level), DelayByPriority holds one bound per
// level — higher levels (smaller numbers) see the port's service minus
// one non-preemptive blocking frame, lower levels see the service left
// over by the higher ones — and DelayUs is the worst of them. The
// backlog bound covers the shared buffer across levels.
type PortResult struct {
	DelayUs         float64
	DelayByPriority map[int]float64
	BacklogBits     float64
	Utilization     float64
	// Flows holds the bounds of the flows crossing the port: Flows[k]
	// belongs to afdx.Port.Flows[k].
	Flows []FlowBound
}

// FlowBound is one flow's bounds at one output port.
type FlowBound struct {
	// DelayUs is the delay bound the flow experiences at the port: its
	// priority level's bound (DelayByPriority). Path bounds are the sums
	// of these terms along the crossed ports.
	DelayUs float64
	// PrefixUs bounds the time between the frame's emission and its
	// arrival at the port: the sum of the delay bounds of the ports
	// crossed before it. The Trajectory approach uses it as S_max.
	PrefixUs float64
	// BurstBits is the flow's burst as it arrives at the port, after
	// upstream jitter inflation.
	BurstBits float64
}

// Result is the outcome of a WCNC analysis of a full configuration.
type Result struct {
	Opts  Options
	Ports map[afdx.PortID]PortResult
	// PathDelays maps every (VL, destination) path to its end-to-end
	// delay upper bound in microseconds.
	PathDelays map[afdx.PathID]float64
}

// Analyze runs the WCNC analysis over a feed-forward port graph.
// It returns an error when a port is unstable (aggregate long-term rate
// above the link rate), since no finite bound exists in that case. The
// stability pre-flight is the shared lint check (diagnostic AFDX001):
// any configuration this engine rejects is flagged by the linter before
// the analysis is ever invoked.
func Analyze(pg *afdx.PortGraph, opts Options) (*Result, error) {
	return AnalyzeCtx(context.Background(), pg, opts)
}

// ncMetrics is the engine's instrument bundle, resolved once per run
// from the context registry. All fields may be nil (no registry): the
// obs instruments no-op on nil receivers. Every netcalc metric is
// Deterministic — the work set is fixed by the configuration, so the
// counts are identical across runs and worker counts.
type ncMetrics struct {
	ports     *obs.Counter
	envelopes *obs.Counter
	rankSize  *obs.Histogram
}

func newNCMetrics(reg *obs.Registry) ncMetrics {
	if reg == nil {
		return ncMetrics{}
	}
	return ncMetrics{
		ports: reg.Counter("netcalc.ports_analyzed", obs.Deterministic,
			"output ports analysed (horizontal-deviation bounds computed)"),
		envelopes: reg.Counter("netcalc.flow_envelopes", obs.Deterministic,
			"per-flow arrival envelopes built at ports"),
		rankSize: reg.Histogram("netcalc.rank_size", obs.Deterministic,
			"ports per dependency rank (the per-rank fan-out width)"),
	}
}

// ncRun is the state of one engine run. Every (VL, port) incidence is
// numbered densely: ports by their position in pg.Order, then flows by
// their position in Port.Flows, so port i owns the incidence range
// [base[i], base[i+1]). The rank loop reads and writes only the slices
// below, and each port's result keeps its range of flows.
type ncRun struct {
	pg   *afdx.PortGraph
	opts Options
	m    ncMetrics

	ports []*afdx.Port // ports[i] is pg.Ports[pg.Order[i]]
	pos   map[afdx.PortID]int32
	base  []int32
	// up is the incidence that feeds each incidence: the same VL at the
	// port it crosses just before (-1 at its source port). A VL enters
	// a port from exactly one link, so there is exactly one.
	up []int32
	// Per incidence: the flow's bounds at the port, and its burst on
	// leaving it.
	flows    []FlowBound
	outBurst []float64
	portRes  []PortResult
}

// newRun numbers the graph's incidences and links each one to its
// upstream incidence: the VL's index at the port its group arrives
// from, offset by that port's base.
func newRun(ctx context.Context, pg *afdx.PortGraph, opts Options) *ncRun {
	rn := &ncRun{
		pg:    pg,
		opts:  opts,
		m:     newNCMetrics(obs.RegistryFrom(ctx)),
		ports: make([]*afdx.Port, len(pg.Order)),
		pos:   make(map[afdx.PortID]int32, len(pg.Order)),
		base:  make([]int32, len(pg.Order)+1),
	}
	for i, id := range pg.Order {
		rn.ports[i] = pg.Ports[id]
		rn.pos[id] = int32(i)
		rn.base[i+1] = rn.base[i] + int32(len(rn.ports[i].Flows))
	}
	n := rn.base[len(pg.Order)]
	rn.up = make([]int32, n)
	rn.flows = make([]FlowBound, n)
	rn.outBurst = make([]float64, n)
	rn.portRes = make([]PortResult, len(pg.Order))
	for i, port := range rn.ports {
		for k, f := range port.Flows {
			j := rn.base[i] + int32(k)
			rn.up[j] = -1
			if f.Up >= 0 {
				from := rn.pos[afdx.PortID{From: port.Groups[f.Group].Prev, To: port.ID.From}]
				rn.up[j] = rn.base[from] + f.Up
			}
		}
	}
	return rn
}

// AnalyzeCtx is Analyze with observability: when ctx carries an
// obs.Registry the engine counts ports, envelopes and rank sizes; when
// it carries an obs.Tracer the run is one "netcalc" span (ports are
// counted, not traced). Observation never influences the
// computation: results are bit-identical with or without it.
func AnalyzeCtx(ctx context.Context, pg *afdx.PortGraph, opts Options) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "netcalc")
	defer span.End()
	if err := lint.CheckStability(pg); err != nil {
		return nil, fmt.Errorf("netcalc: %w", err)
	}
	rn := newRun(ctx, pg, opts)
	if rn.m.rankSize != nil {
		for _, rank := range pg.Ranks() {
			rn.m.rankSize.Observe(int64(len(rank)))
		}
	}
	// Ports of the same dependency rank are independent: each reads
	// only incidences of ports in strictly lower ranks, all finished
	// before the rank starts, and writes only its own incidence range
	// and result slot. So a rank is a safe fan-out unit, and the run is
	// bit-identical at every worker count. At workers == 1 ForEachCtx
	// degenerates to an in-order loop, so the sequential analysis
	// shares this code path — and its metric stream: the pool's
	// deterministic batch and task counts are identical across worker
	// counts.
	workers := parallel.Workers(opts.Parallel)
	for _, rank := range pg.Ranks() {
		err := parallel.ForEachCtx(ctx, workers, len(rank), func(i int) error {
			return analyzePort(rn, int(rn.pos[rank[i]]))
		})
		if err != nil {
			return nil, err
		}
	}
	return rn.result(), nil
}

// result fills the public Result maps from the run's dense state. A
// path's bound is the prefix bound at its last port plus the flow's
// delay there: the prefix is the sum of the earlier ports' terms,
// accumulated from 0 in path order, so this is the same float sum as
// adding the path's per-port terms one by one.
func (rn *ncRun) result() *Result {
	paths := 0
	for _, vl := range rn.pg.Net.VLs {
		paths += len(vl.Paths)
	}
	res := &Result{
		Opts:       rn.opts,
		Ports:      make(map[afdx.PortID]PortResult, len(rn.ports)),
		PathDelays: make(map[afdx.PathID]float64, paths),
	}
	for i, port := range rn.ports {
		res.Ports[port.ID] = rn.portRes[i]
	}
	for _, vl := range rn.pg.Net.VLs {
		for pi, path := range vl.Paths {
			i := rn.pos[afdx.PortID{From: path[len(path)-2], To: path[len(path)-1]}]
			k, _ := rn.ports[i].FlowIndex(vl.ID)
			fb := rn.flows[rn.base[i]+int32(k)]
			res.PathDelays[afdx.PathID{VL: vl.ID, PathIdx: pi}] = fb.PrefixUs + fb.DelayUs
		}
	}
	return res
}

// flowEnvelope returns the arrival envelope of incidence j under
// StairSteps > 0: the exact jitter-shifted staircase curve, capped by
// the jitter-inflated leaky bucket. Leaky-bucket envelopes alone are
// summed in closed form by analyzePort.
func (rn *ncRun) flowEnvelope(j int32, vl *afdx.VirtualLink, port afdx.PortID) (minplus.Curve, error) {
	lb := minplus.LeakyBucket(rn.flows[j].BurstBits, vl.RhoBitsPerUs())
	// The staircase jitter is the accumulated upstream delay bound: a
	// frame emitted at t arrives at this port within
	// [t + minTransit, t + prefixDelay], so in the worst case the
	// window of length x holds the frames of a window of length
	// x + prefixDelay at the source.
	stair, err := minplus.StaircaseWithJitter(vl.SMaxBits(), vl.BAGUs(), rn.flows[j].PrefixUs, rn.opts.StairSteps)
	if err != nil {
		return minplus.Curve{}, fmt.Errorf("netcalc: staircase envelope for VL %s at %s: %w", vl.ID, port, err)
	}
	// Keep the leaky bucket as a second valid envelope; their minimum is
	// a tighter valid envelope (they can dominate each other depending
	// on how the jitter relates to the burst inflation).
	return minplus.Min(lb, stair), nil
}

// levelCurve is one priority level's aggregate arrival curve at a port.
type levelCurve struct {
	lvl   int
	agg   minplus.Curve
	delay float64
}

// analyzePort analyses the port at position i of pg.Order. It reads the
// incidences that feed it, which belong to ports of lower ranks, and
// writes only its own incidences and result slot.
func analyzePort(rn *ncRun, i int) error {
	port := rn.ports[i]
	id := port.ID
	rn.m.ports.Inc()
	beta := minplus.RateLatency(port.RateBitsPerUs, port.LatencyUs)

	// Arrival state: the feeding incidence's departure burst and its
	// prefix plus its delay; at the source end system every VL is
	// freshly shaped to (s_max, s_max/BAG).
	lo, hi := rn.base[i], rn.base[i+1]
	flows := rn.flows[lo:hi:hi]
	for k, f := range port.Flows {
		if u := rn.up[lo+int32(k)]; u >= 0 {
			flows[k].BurstBits = rn.outBurst[u]
			flows[k].PrefixUs = rn.flows[u].PrefixUs + rn.flows[u].DelayUs
		} else {
			flows[k].BurstBits = f.VL.SMaxBits()
			flows[k].PrefixUs = 0
		}
	}

	// Grouped aggregate arrival curve per priority level, plus the total
	// for stability and backlog. Groups and levels are iterated in
	// sorted order, members in VL-ID order: the curve additions below
	// accumulate floating-point error, so iteration order is part of
	// the reproducibility contract.
	var levels []levelCurve
	var groupLevels []int
	rhoSum := 0.0
	// Envelope constructions are counted locally and flushed in one Add
	// per port: a per-flow atomic increment from every worker contends
	// on one cache line for no observational gain.
	envelopes := int64(0)
	stairs := rn.opts.StairSteps > 0
	for g, in := range port.Groups {
		// Grouping applies within a priority level: a link serializes
		// all frames, but the shaping below feeds per-level residual
		// services, so split the group by level first (conservative:
		// cross-level serialization is not exploited).
		groupLevels = groupLevels[:0]
		for _, f := range port.Flows {
			if f.Group != int32(g) {
				continue
			}
			if !slices.Contains(groupLevels, f.VL.Priority) {
				groupLevels = append(groupLevels, f.VL.Priority)
			}
			rhoSum += f.VL.RhoBitsPerUs()
		}
		slices.Sort(groupLevels)
		for _, lvl := range groupLevels {
			var members minplus.Curve
			if stairs {
				members = minplus.Zero()
			}
			burst, rate := 0.0, 0.0
			maxFrame := 0.0
			count := 0
			for k, f := range port.Flows {
				vl := f.VL
				if f.Group != int32(g) || vl.Priority != lvl {
					continue
				}
				envelopes++
				count++
				if s := vl.SMaxBits(); s > maxFrame {
					maxFrame = s
				}
				j := lo + int32(k)
				if !stairs {
					// Leaky buckets sum to a leaky bucket: burst and
					// rate add up in member order from 0, exactly the
					// floats minplus.Add computes on one-segment
					// curves (DESIGN §5.1).
					burst += rn.flows[j].BurstBits
					rate += vl.RhoBitsPerUs()
					continue
				}
				env, err := rn.flowEnvelope(j, vl, id)
				if err != nil {
					return err
				}
				members = minplus.Add(members, env)
			}
			if !stairs {
				members = minplus.LeakyBucket(burst, rate)
			}
			groupEnv := members
			if rn.opts.Grouping && in.Prev != "" && count > 1 {
				// Serialization on the shared input link: the group
				// cannot burst faster than the link transmits, one
				// largest frame ahead (the paper's leaky-bucket shaping
				// with "a rate equal to the rate of the source" link).
				shaping := minplus.LeakyBucket(maxFrame, in.RateBitsPerUs)
				groupEnv = minplus.Min(members, shaping)
			}
			if l := slices.IndexFunc(levels, func(c levelCurve) bool { return c.lvl == lvl }); l >= 0 {
				levels[l].agg = minplus.Add(levels[l].agg, groupEnv)
			} else {
				levels = append(levels, levelCurve{lvl: lvl, agg: groupEnv})
			}
		}
	}
	slices.SortFunc(levels, func(a, b levelCurve) int { return cmp.Compare(a.lvl, b.lvl) })
	if envelopes > 0 {
		rn.m.envelopes.Add(envelopes)
	}

	// Stability (rhoSum <= rate) is guaranteed by the pre-flight
	// lint.CheckStability in Analyze; rhoSum is kept for the utilization
	// figure of the port result.

	// Per-level delay bounds: level p is served by the port's service
	// minus the higher levels' arrivals and minus one non-preemptive
	// blocking frame of the lower levels. With a single level this is
	// exactly the FIFO analysis of the paper.
	delayByPrio := make(map[int]float64, len(levels))
	total := minplus.Zero()
	worst := 0.0
	higher := minplus.Zero()
	for l := range levels {
		lvl := levels[l].lvl
		blocking := 0.0
		for _, f := range port.Flows {
			if f.VL.Priority > lvl {
				if s := f.VL.SMaxBits(); s > blocking {
					blocking = s
				}
			}
		}
		residual := beta
		if l > 0 || blocking > 0 {
			var err error
			residual, err = minplus.SubPos(beta, minplus.Add(higher, minplus.Plateau(blocking)))
			if err != nil {
				return fmt.Errorf("netcalc: port %s level %d residual service: %w", id, lvl, err)
			}
		}
		delay := minplus.HorizontalDeviation(levels[l].agg, residual)
		if math.IsInf(delay, 1) {
			return fmt.Errorf("netcalc: port %s: unbounded delay at priority %d", id, lvl)
		}
		levels[l].delay = delay
		delayByPrio[lvl] = delay
		if delay > worst {
			worst = delay
		}
		higher = minplus.Add(higher, levels[l].agg)
		total = minplus.Add(total, levels[l].agg)
	}
	rn.portRes[i] = PortResult{
		DelayUs:         worst,
		DelayByPriority: delayByPrio,
		BacklogBits:     minplus.VerticalDeviation(total, beta),
		Utilization:     rhoSum / port.RateBitsPerUs,
		Flows:           flows,
	}

	// Each flow's delay term is its priority level's bound at this port,
	// which is also the exact theta-minimum of the per-flow FIFO
	// residual bound (DESIGN.md §14.1). Its departure burst feeds the
	// ports downstream: the output traffic is bounded by alpha(t+delay),
	// so the burst grows by rho*delay.
	for k, f := range port.Flows {
		l := slices.IndexFunc(levels, func(c levelCurve) bool { return c.lvl == f.VL.Priority })
		flows[k].DelayUs = levels[l].delay
		rn.outBurst[lo+int32(k)] = flows[k].BurstBits + f.VL.RhoBitsPerUs()*flows[k].DelayUs
	}
	return nil
}

// PathDelay returns the end-to-end bound of one path, or an error when
// the path is unknown.
func (r *Result) PathDelay(id afdx.PathID) (float64, error) {
	d, ok := r.PathDelays[id]
	if !ok {
		return 0, fmt.Errorf("netcalc: unknown path %v", id)
	}
	return d, nil
}

// MaxBacklogBits returns the largest per-port backlog bound, i.e. the
// switch buffer dimensioning figure mentioned in the paper's section II-B.
// The ports are scanned in canonical order so that a future refinement
// reporting the arg-max port cannot reintroduce a DET001 tie-break on
// randomized map iteration.
func (r *Result) MaxBacklogBits() float64 {
	ids := make([]afdx.PortID, 0, len(r.Ports))
	for id := range r.Ports {
		ids = append(ids, id)
	}
	afdx.SortPortIDs(ids)
	m := 0.0
	for _, id := range ids {
		if p := r.Ports[id]; p.BacklogBits > m {
			m = p.BacklogBits
		}
	}
	return m
}
