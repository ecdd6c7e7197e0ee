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
	"context"
	"fmt"
	"math"
	"sort"

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
	// Deconvolution propagates per-flow output envelopes with the exact
	// (min,+) deconvolution against the port's residual service instead
	// of the classical burst inflation b <- b + rho*D. This is an
	// ablation knob; the paper's tool uses burst inflation.
	Deconvolution bool
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
// column: grouping enabled, classical burst-inflation propagation.
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
}

// FlowPortKey identifies a (VL, port) incidence.
type FlowPortKey struct {
	VL   string
	Port afdx.PortID
}

// Result is the outcome of a WCNC analysis of a full configuration.
type Result struct {
	Opts  Options
	Ports map[afdx.PortID]PortResult
	// PathDelays maps every (VL, destination) path to its end-to-end
	// delay upper bound in microseconds.
	PathDelays map[afdx.PathID]float64
	// FlowDelays maps every (VL, port) incidence to the delay bound the
	// flow experiences at that port: its priority-level bound
	// (DelayByPriority). Path bounds are the sums of these terms along
	// the crossed ports.
	FlowDelays map[FlowPortKey]float64
	// PrefixDelays maps (VL, port) to an upper bound on the time between
	// the frame's emission and its arrival at that port (the sum of the
	// delay bounds of the ports crossed before it). Used as the S_max
	// term by the Trajectory approach.
	PrefixDelays map[FlowPortKey]float64
	// Bursts maps (VL, port) to the flow's burst (bits) as it arrives at
	// the port, after upstream jitter inflation.
	Bursts map[FlowPortKey]float64
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
	betaHits  *obs.Counter
	betaMiss  *obs.Counter
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
		betaHits: reg.Counter("netcalc.service_curve_cache_hits", obs.Deterministic,
			"port service curves served from the (rate, latency) cache"),
		betaMiss: reg.Counter("netcalc.service_curve_cache_misses", obs.Deterministic,
			"distinct (rate, latency) service curves constructed"),
		rankSize: reg.Histogram("netcalc.rank_size", obs.Deterministic,
			"ports per dependency rank (the per-rank fan-out width)"),
	}
}

// ncRun bundles the per-run state threaded through analyzePort: the
// graph, the shared (merge-only) result, the instrument bundle, and
// the read-only service-curve cache.
type ncRun struct {
	ctx   context.Context
	pg    *afdx.PortGraph
	res   *Result
	m     ncMetrics
	betas map[betaKey]minplus.Curve
}

// betaKey identifies a rate-latency service curve. Ports share curves
// aggressively (an AFDX network has a handful of link speeds), so the
// cache is precomputed sequentially and read-only afterwards —
// parallel-safe, and hit counts are exact work counts.
type betaKey struct {
	rate    float64
	latency float64
}

// AnalyzeCtx is Analyze with observability: when ctx carries an
// obs.Registry the engine counts ports, envelopes, service-curve cache
// traffic and rank sizes; when it carries an obs.Tracer the run is
// wrapped in a "netcalc" span with one "port:<id>" span per port.
// Observation never influences the computation: results are
// bit-identical with or without it.
func AnalyzeCtx(ctx context.Context, pg *afdx.PortGraph, opts Options) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "netcalc")
	defer span.End()
	if err := lint.CheckStability(pg); err != nil {
		return nil, fmt.Errorf("netcalc: %w", err)
	}
	incidences := 0
	for _, port := range pg.Ports {
		incidences += len(port.Flows)
	}
	res := &Result{
		Opts:         opts,
		Ports:        make(map[afdx.PortID]PortResult, len(pg.Ports)),
		PathDelays:   map[afdx.PathID]float64{},
		FlowDelays:   make(map[FlowPortKey]float64, incidences),
		PrefixDelays: make(map[FlowPortKey]float64, incidences),
		Bursts:       make(map[FlowPortKey]float64, incidences),
	}
	// Initialise source-port envelopes: at its source end system every VL
	// is freshly shaped to (s_max, s_max/BAG).
	for _, id := range pg.Order {
		port := pg.Ports[id]
		for _, f := range port.Flows {
			if f.Prev == "" {
				res.Bursts[FlowPortKey{f.VL.ID, id}] = f.VL.SMaxBits()
				res.PrefixDelays[FlowPortKey{f.VL.ID, id}] = 0
			}
		}
	}
	rn := &ncRun{
		ctx: ctx,
		pg:  pg,
		res: res,
		m:   newNCMetrics(obs.RegistryFrom(ctx)),
	}
	// Precompute the service-curve cache over the distinct (rate,
	// latency) pairs; afterwards it is read-only and parallel-safe.
	rn.betas = make(map[betaKey]minplus.Curve)
	for _, id := range pg.Order {
		port := pg.Ports[id]
		k := betaKey{port.RateBitsPerUs, port.LatencyUs}
		if _, ok := rn.betas[k]; !ok {
			rn.betas[k] = minplus.RateLatency(port.RateBitsPerUs, port.LatencyUs)
			rn.m.betaMiss.Inc()
		}
	}
	if rn.m.rankSize != nil {
		for _, rank := range pg.Ranks() {
			rn.m.rankSize.Observe(int64(len(rank)))
		}
	}
	// Ports of the same dependency rank are independent — each reads
	// only results of strictly lower ranks, all merged before the rank
	// starts — so a rank is a safe fan-out unit. Outcomes land indexed
	// in a slice and merge in the rank's canonical order, keeping the
	// Result maps free of concurrent writes and the run bit-identical
	// at every worker count. At workers == 1 ForEachCtx degenerates to
	// an in-order loop, so the sequential analysis shares this code
	// path — and its metric stream: the pool's deterministic batch and
	// task counts are identical across worker counts.
	workers := parallel.Workers(opts.Parallel)
	for _, rank := range pg.Ranks() {
		outs := make([]*portOutcome, len(rank))
		err := parallel.ForEachCtx(ctx, workers, len(rank), func(i int) error {
			out, err := analyzePort(rn, rank[i])
			outs[i] = out
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, out := range outs {
			res.merge(out)
		}
	}
	// Path bounds sum the per-flow port terms, each exactly the flow's
	// priority-level bound.
	for _, pid := range pg.Net.AllPaths() {
		total := 0.0
		for _, portID := range pg.PathPorts(pid) {
			total += res.FlowDelays[FlowPortKey{pid.VL, portID}]
		}
		res.PathDelays[pid] = total
	}
	return res, nil
}

// flowEnvelope returns the arrival envelope of one flow as it arrives
// at a port: the jitter-inflated leaky bucket, or (with StairSteps > 0)
// the exact jitter-shifted staircase curve.
func flowEnvelope(res *Result, vl *afdx.VirtualLink, port afdx.PortID) (minplus.Curve, error) {
	key := FlowPortKey{vl.ID, port}
	b, ok := res.Bursts[key]
	if !ok {
		return minplus.Curve{}, fmt.Errorf("netcalc: no propagated envelope for VL %s at port %s (port order broken)", vl.ID, port)
	}
	lb := minplus.LeakyBucket(b, vl.RhoBitsPerUs())
	if res.Opts.StairSteps <= 0 {
		return lb, nil
	}
	// The staircase jitter is the accumulated upstream delay bound: a
	// frame emitted at t arrives at this port within
	// [t + minTransit, t + prefixDelay], so in the worst case the
	// window of length x holds the frames of a window of length
	// x + prefixDelay at the source.
	jitter := res.PrefixDelays[key]
	stair, err := minplus.StaircaseWithJitter(vl.SMaxBits(), vl.BAGUs(), jitter, res.Opts.StairSteps)
	if err != nil {
		return minplus.Curve{}, fmt.Errorf("netcalc: staircase envelope for VL %s at %s: %w", vl.ID, port, err)
	}
	// Keep the leaky bucket as a second valid envelope; their minimum is
	// a tighter valid envelope (they can dominate each other depending
	// on how the jitter relates to the burst inflation).
	return minplus.Min(lb, stair), nil
}

// flowWrite is one envelope propagation produced by a port analysis:
// the analyzed flow's burst and accumulated prefix delay as it arrives
// at a downstream port.
type flowWrite struct {
	key    FlowPortKey
	burst  float64
	prefix float64
}

// flowDelayTerm is one flow's delay bound at the analysed port (the
// FlowDelays entry the merge step publishes).
type flowDelayTerm struct {
	key   FlowPortKey
	delay float64
}

// portOutcome is the complete effect of analysing one port: its bounds,
// the per-flow delay terms, plus the envelope propagations to
// downstream ports. analyzePort only reads the Result it is given;
// applying an outcome is the separate, single-writer merge step, which
// keeps the parallel engine free of concurrent map access.
type portOutcome struct {
	id     afdx.PortID
	port   PortResult
	delays []flowDelayTerm
	writes []flowWrite
}

// merge applies one port's outcome to the shared result. Writes are
// conflict-free across ports (a VL enters every port from exactly one
// upstream link), so merge order does not affect the stored values;
// callers still merge in canonical port order so error-free runs are
// reproducible step by step.
func (r *Result) merge(out *portOutcome) {
	r.Ports[out.id] = out.port
	for _, d := range out.delays {
		r.FlowDelays[d.key] = d.delay
	}
	for _, w := range out.writes {
		r.Bursts[w.key] = w.burst
		r.PrefixDelays[w.key] = w.prefix
	}
}

func analyzePort(rn *ncRun, id afdx.PortID) (*portOutcome, error) {
	pg, res := rn.pg, rn.res
	_, span := obs.StartSpan(rn.ctx, "port:"+id.String())
	defer span.End()
	rn.m.ports.Inc()
	port := pg.Ports[id]
	beta, ok := rn.betas[betaKey{port.RateBitsPerUs, port.LatencyUs}]
	if !ok {
		// The engine precomputes every port's service curve before the
		// rank fan-out; a miss means analyzePort ran outside an engine
		// run, which would silently skip the beta-cache accounting. Hard
		// invariant error rather than untested fallback code.
		return nil, fmt.Errorf("netcalc: port %s: service curve (rate %g, latency %g) not precomputed (analyzePort called outside an engine run)",
			id, port.RateBitsPerUs, port.LatencyUs)
	}
	rn.m.betaHits.Inc()

	// Grouped aggregate arrival curve per priority level, plus the total
	// for stability and backlog. Groups and levels are iterated in
	// sorted order: the curve additions below accumulate floating-point
	// error, so iteration order is part of the reproducibility contract.
	levelAgg := map[int]minplus.Curve{}
	levels := []int{}
	rhoSum := 0.0
	// Envelope constructions are counted locally and flushed in one Add
	// per port: a per-flow atomic increment from every worker contends
	// on one cache line for no observational gain.
	envelopes := int64(0)
	for _, g := range port.InputGroupsSorted() {
		// Grouping applies within a priority level: a link serializes
		// all frames, but the shaping below feeds per-level residual
		// services, so split the group by level first (conservative:
		// cross-level serialization is not exploited).
		byLevel := map[int][]afdx.PortFlow{}
		groupLevels := []int{}
		for _, f := range g.Flows {
			if _, ok := byLevel[f.VL.Priority]; !ok {
				groupLevels = append(groupLevels, f.VL.Priority)
			}
			byLevel[f.VL.Priority] = append(byLevel[f.VL.Priority], f)
			rhoSum += f.VL.RhoBitsPerUs()
		}
		sort.Ints(groupLevels)
		for _, lvl := range groupLevels {
			flows := byLevel[lvl]
			var members = minplus.Zero()
			maxFrame := 0.0
			for _, f := range flows {
				env, err := flowEnvelope(res, f.VL, id)
				if err != nil {
					return nil, err
				}
				envelopes++
				members = minplus.Add(members, env)
				if s := f.VL.SMaxBits(); s > maxFrame {
					maxFrame = s
				}
			}
			inRate := port.RateBitsPerUs
			if in := pg.Ports[afdx.PortID{From: g.Prev, To: id.From}]; in != nil {
				inRate = in.RateBitsPerUs
			}
			groupEnv := members
			if res.Opts.Grouping && g.Prev != "" && len(flows) > 1 {
				// Serialization on the shared input link: the group
				// cannot burst faster than the link transmits, one
				// largest frame ahead (the paper's leaky-bucket shaping
				// with "a rate equal to the rate of the source" link).
				shaping := minplus.LeakyBucket(maxFrame, inRate)
				groupEnv = minplus.Min(members, shaping)
			}
			if cur, ok := levelAgg[lvl]; ok {
				levelAgg[lvl] = minplus.Add(cur, groupEnv)
			} else {
				levelAgg[lvl] = groupEnv
				levels = append(levels, lvl)
			}
		}
	}
	sort.Ints(levels)
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
	delayByPrio := map[int]float64{}
	total := minplus.Zero()
	worst := 0.0
	higher := minplus.Zero()
	for i, lvl := range levels {
		blocking := 0.0
		for _, f := range port.Flows {
			if f.VL.Priority > lvl {
				if s := f.VL.SMaxBits(); s > blocking {
					blocking = s
				}
			}
		}
		residual := beta
		if i > 0 || blocking > 0 {
			var err error
			residual, err = minplus.SubPos(beta, minplus.Add(higher, minplus.Plateau(blocking)))
			if err != nil {
				return nil, fmt.Errorf("netcalc: port %s level %d residual service: %w", id, lvl, err)
			}
		}
		delay := minplus.HorizontalDeviation(levelAgg[lvl], residual)
		if math.IsInf(delay, 1) {
			return nil, fmt.Errorf("netcalc: port %s: unbounded delay at priority %d", id, lvl)
		}
		delayByPrio[lvl] = delay
		if delay > worst {
			worst = delay
		}
		higher = minplus.Add(higher, levelAgg[lvl])
		total = minplus.Add(total, levelAgg[lvl])
	}
	backlog := minplus.VerticalDeviation(total, beta)
	out := &portOutcome{
		id: id,
		port: PortResult{
			DelayUs:         worst,
			DelayByPriority: delayByPrio,
			BacklogBits:     backlog,
			Utilization:     rhoSum / port.RateBitsPerUs,
		},
	}

	// Propagate each flow's envelope to its next port(s) using its
	// priority level's bound at this port, which is also the exact
	// theta-minimum of the per-flow FIFO residual bound (DESIGN.md
	// §14.1). The per-flow terms are published to FlowDelays — path
	// bounds sum them.
	for _, f := range port.Flows {
		key := FlowPortKey{f.VL.ID, id}
		delay := delayByPrio[f.VL.Priority]
		out.delays = append(out.delays, flowDelayTerm{key: key, delay: delay})
		nextBurst, err := outputBurst(res, f.VL, id, delay)
		if err != nil {
			return nil, err
		}
		for _, next := range nextPorts(pg, f.VL, id) {
			out.writes = append(out.writes, flowWrite{
				key:    FlowPortKey{f.VL.ID, next},
				burst:  nextBurst,
				prefix: res.PrefixDelays[key] + delay,
			})
		}
	}
	return out, nil
}

// outputBurst computes the burst of a flow after it crosses a port whose
// delay bound for the flow is delay. The classical propagation inflates
// the burst by rho*delay (the output traffic is bounded by
// alpha(t+delay)); the Deconvolution option instead deconvolves the flow
// envelope against the exact pure-delay service delta_delay, which for
// leaky buckets evaluates to the identical float expression b + rho*delay
// at every link rate — the ablation's correctness no longer depends on a
// finite magic rate (the old stand-in was RateLatency(1e12, delay)).
func outputBurst(res *Result, vl *afdx.VirtualLink, id afdx.PortID, delay float64) (float64, error) {
	b := res.Bursts[FlowPortKey{vl.ID, id}]
	if !res.Opts.Deconvolution {
		return b + vl.RhoBitsPerUs()*delay, nil
	}
	env := minplus.LeakyBucket(b, vl.RhoBitsPerUs())
	// In FIFO aggregation the flow is guaranteed the aggregate's delay
	// bound as a pure delay service: delta_delay(t) = +inf for t > delay.
	// Deconvolving against it gives alpha(t + delay) exactly.
	out, err := minplus.Deconvolve(env, minplus.Delay(delay))
	if err != nil {
		return 0, fmt.Errorf("netcalc: propagating VL %s past port %s: %w", vl.ID, id, err)
	}
	return out.ValueAtZero(), nil
}

// nextPorts lists the ports immediately downstream of id on the paths of
// the given VL (several for a multicast branch, none at the last hop).
func nextPorts(pg *afdx.PortGraph, vl *afdx.VirtualLink, id afdx.PortID) []afdx.PortID {
	var out []afdx.PortID
	seen := map[afdx.PortID]bool{}
	for pi := range vl.Paths {
		seq := pg.PathPorts(afdx.PathID{VL: vl.ID, PathIdx: pi})
		for k := 0; k+1 < len(seq); k++ {
			if seq[k] == id && !seen[seq[k+1]] {
				seen[seq[k+1]] = true
				out = append(out, seq[k+1])
			}
		}
	}
	return out
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
