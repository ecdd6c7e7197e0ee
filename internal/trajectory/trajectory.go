// Package trajectory implements the Trajectory approach to worst-case
// end-to-end delay analysis of AFDX Virtual Links, following the FIFO
// response-time analysis of Martin & Minet (IPDPS 2006) as applied to
// AFDX by Bauer, Scharbarg & Fraboul (ETFA 2009) and compared against
// Network Calculus in the reproduced DATE 2010 paper.
//
// For a frame of VL i emitted at relative time t within the busy period
// of its source output port, the end-to-end response time is bounded by
//
//	R_i(t) = sum_{j sharing a port with i} N_j(t + A_ij) * C_j   (interference)
//	       + sum_{h in path, h != first}  max_{j in h} C_j       (transition term)
//	       + sum_{h in path} L_h                                 (latencies)
//	       - t
//
// where C_j is the transmission time of a maximum-size frame of j,
// N_j(x) = 1 + floor(max(0,x) / BAG_j) counts j-frames in a window of
// length x, and A_ij = Smax_j(f_ij) - Smin_i(f_ij) aligns the window at
// the first port f_ij where j meets i. The bound is the maximum of
// R_i(t) over the (finitely many) step points of the busy period.
//
// The transition term is the paper's "packet counted twice": the last
// packet of the busy period at a node is the first packet of the busy
// period at the next node, and its size is only known to be bounded by
// the largest frame crossing that node — the pessimism source analysed
// in the paper's section III-B.
//
// The grouping (serialization) refinement caps the first-frame burst of
// the flows that first meet i at the same port through the same input
// link: those frames arrive serialized on that link, so they cannot all
// be queued simultaneously; their joint contribution is bounded by the
// largest member frame plus the link throughput over the busy window —
// the leaky-bucket shaping quoted in the paper.
package trajectory

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"afdx/internal/afdx"
	"afdx/internal/core/tol"
	"afdx/internal/lint"
	"afdx/internal/netcalc"
	"afdx/internal/obs"
	"afdx/internal/parallel"
)

// PrefixMode selects how the latest arrival time Smax_j at a meeting port
// is bounded.
type PrefixMode int

const (
	// PrefixNC bounds Smax_j with the grouped Network Calculus prefix
	// delay of flow j up to the meeting port (safe and fast; default).
	PrefixNC PrefixMode = iota
	// PrefixTrajectory bounds Smax_j recursively with the Trajectory
	// approach applied to j's prefix sub-path (the refinement used by
	// the paper's tool; slower, usually tighter).
	PrefixTrajectory
)

// Options selects analysis variants.
type Options struct {
	// Grouping enables the serialization refinement (paper Fig. 4).
	Grouping bool
	// DeltaAtFirstNode switches the transition ("counted twice") term
	// from the receiving-node convention (default, matches the paper's
	// description "the biggest packet of a VL meeting v1 in that node")
	// to attributing it to the departing node. Ablation knob.
	DeltaAtFirstNode bool
	// SharedTransition restricts each transition term to the flows that
	// cross BOTH ports of the transition: the busy-period-bridging
	// packet leaves the previous port and is queued at the next one, so
	// only such flows can supply it. This is the refinement the paper's
	// conclusion announces as future work ("adapt the trajectory
	// approach ... where the bounds are worse than network calculus");
	// it directly shrinks the small-frame pessimism of Figure 7.
	SharedTransition bool
	// PrefixMode selects the Smax bound (see PrefixMode).
	PrefixMode PrefixMode
	// Parallel bounds the analysis worker pool: paths are analysed
	// concurrently by at most this many goroutines (<= 0 selects
	// GOMAXPROCS, 1 is strictly sequential). Every worker count
	// produces bit-identical results: each path's bound is a pure
	// function of the configuration and the shared prefix bounds, and
	// worker results merge in canonical path order (see DESIGN.md,
	// "Concurrency and determinism").
	Parallel int
}

// DefaultOptions matches the paper's "Trajectory approach" column:
// grouping on, receiving-node transition term, NC-bounded prefixes.
func DefaultOptions() Options { return Options{Grouping: true} }

// PathDetail exposes the internals of one path analysis, for reports and
// for tests of the busy-period machinery.
type PathDetail struct {
	DelayUs        float64
	BusyPeriodUs   float64 // length bound of the source-port busy period
	CriticalT      float64 // emission offset t attaining the maximum
	NumCandidates  int     // evaluated step points
	NumInterferers int     // flows sharing at least one port (incl. self)
}

// Result is the outcome of a Trajectory analysis of a full configuration.
type Result struct {
	Opts       Options
	PathDelays map[afdx.PathID]float64
	Details    map[afdx.PathID]PathDetail
}

// PathDelay returns the end-to-end bound of one path.
func (r *Result) PathDelay(id afdx.PathID) (float64, error) {
	d, ok := r.PathDelays[id]
	if !ok {
		return 0, fmt.Errorf("trajectory: unknown path %v", id)
	}
	return d, nil
}

// prefixCache memoizes recursive prefix response times: the latest
// departure of a VL from a given port (PrefixTrajectory mode). It is
// safe for concurrent use by the per-path workers; a value may be
// computed twice under contention (both computations are the same pure
// function, so whichever lands is bit-identical), which keeps readers
// from blocking on each other and cannot deadlock on cyclic
// dependencies. Cycle detection is NOT the cache's job: recursion
// tracks its own call chain in a per-goroutine visiting set (see sMax),
// because a shared in-progress map would misread another worker's
// ongoing computation as a cycle.
type prefixCache struct {
	mu  sync.RWMutex
	val map[netcalc.FlowPortKey]float64
}

func (c *prefixCache) get(k netcalc.FlowPortKey) (float64, bool) {
	c.mu.RLock()
	v, ok := c.val[k]
	c.mu.RUnlock()
	return v, ok
}

func (c *prefixCache) put(k netcalc.FlowPortKey, v float64) {
	c.mu.Lock()
	c.val[k] = v
	c.mu.Unlock()
}

// trMetrics is the engine's instrument bundle, resolved once per run
// from the context registry; all fields may be nil (the obs
// instruments no-op on nil receivers).
//
// The split between classes is exact: the top-level work set (one
// analyzePortSeq per path) is fixed by the configuration, so its
// counts are Deterministic. Recursive prefix work (PrefixTrajectory
// mode only) goes through the contended trajPrefix cache, where a
// value may be computed twice under parallel contention — those
// counts are scheduling observations and are registered BestEffort.
type trMetrics struct {
	paths       *obs.Counter   // top-level paths analysed
	busyFixes   *obs.Counter   // top-level busy-period fixpoints computed
	busyIters   *obs.Counter   // total fixpoint rounds across them
	busyRounds  *obs.Histogram // rounds per fixpoint
	candidates  *obs.Counter   // candidate emission offsets evaluated
	interferers *obs.Histogram // interference-set size per path
	ncHits      *obs.Counter   // NC prefix-table lookups served (PrefixNC)
	ncMiss      *obs.Counter   // NC prefix-table lookups missing (errors)
	recHits     *obs.Counter   // trajPrefix cache hits (PrefixTrajectory)
	recMiss     *obs.Counter   // trajPrefix cache misses → recursive computation
}

func newTrMetrics(reg *obs.Registry) trMetrics {
	if reg == nil {
		return trMetrics{}
	}
	return trMetrics{
		paths: reg.Counter("trajectory.paths_analyzed", obs.Deterministic,
			"(VL, destination) paths bounded at top level"),
		busyFixes: reg.Counter("trajectory.busy_periods", obs.Deterministic,
			"source-port busy-period fixpoints computed for top-level paths"),
		busyIters: reg.Counter("trajectory.busy_period_iterations", obs.Deterministic,
			"busy-period fixpoint rounds summed over top-level paths"),
		busyRounds: reg.Histogram("trajectory.busy_period_rounds", obs.Deterministic,
			"fixpoint rounds per top-level busy-period computation"),
		candidates: reg.Counter("trajectory.candidate_offsets", obs.Deterministic,
			"emission offsets evaluated for top-level paths"),
		interferers: reg.Histogram("trajectory.interference_set_size", obs.Deterministic,
			"flows in the interference set per top-level path (incl. self)"),
		ncHits: reg.Counter("trajectory.prefix_cache_hits", obs.Deterministic,
			"S_max bounds served from the NC prefix table (PrefixNC mode)"),
		ncMiss: reg.Counter("trajectory.prefix_cache_misses", obs.Deterministic,
			"S_max lookups missing from the NC prefix table (an engine error)"),
		recHits: reg.Counter("trajectory.prefix_recursive_cache_hits", obs.BestEffort,
			"S_max bounds served from the recursive prefix cache (PrefixTrajectory mode)"),
		recMiss: reg.Counter("trajectory.prefix_recursive_cache_misses", obs.BestEffort,
			"recursive S_max computations (duplicates possible under contention)"),
	}
}

// analyzer carries the shared state of one Analyze run. After
// newAnalyzer returns, everything except the prefix cache is read-only,
// so the per-path workers of Analyze share one analyzer.
type analyzer struct {
	pg   *afdx.PortGraph
	opts Options
	m    trMetrics
	// ncPrefix holds the NC prefix delays when PrefixMode == PrefixNC.
	ncPrefix map[netcalc.FlowPortKey]float64
	// trajPrefix caches recursive prefix response times
	// (PrefixTrajectory mode).
	trajPrefix prefixCache
	// reference forces the pre-flattening hot path (reference.go) —
	// the anchor the flattened engine is differentially tested
	// against. Never set on production entry points.
	reference bool
	// flat is the dense per-run index the flattened hot path runs on
	// (flat.go). Built by prepare after the prefix bounds are known;
	// nil only on reference analyzers.
	flat *flatIndex
}

// newAnalyzer validates the configuration for trajectory analysis and
// prepares the shared state (prefix bounds, flat hot-path index).
func newAnalyzer(ctx context.Context, pg *afdx.PortGraph, opts Options) (*analyzer, error) {
	return newAnalyzerWith(ctx, pg, opts, nil, false)
}

// newAnalyzerWith is newAnalyzer with the caller's NC result as the
// prefix-bound source (see AnalyzeWithNCCtx; nil runs a private prefix
// analysis) and an engine selector: reference analyzers skip the flat
// index and run the pre-flattening hot path (differential tests
// only).
func newAnalyzerWith(ctx context.Context, pg *afdx.PortGraph, opts Options, nc *netcalc.Result, reference bool) (*analyzer, error) {
	a := &analyzer{
		pg:         pg,
		opts:       opts,
		m:          newTrMetrics(obs.RegistryFrom(ctx)),
		trajPrefix: prefixCache{val: map[netcalc.FlowPortKey]float64{}},
		reference:  reference,
	}
	// Shared stability pre-flight (lint diagnostic AFDX001), consuming
	// PortGraph.UtilizationReport exactly as the Network Calculus engine
	// and the linter do.
	if err := lint.CheckStability(pg); err != nil {
		return nil, fmt.Errorf("trajectory: %w", err)
	}
	// The Trajectory approach, as published for AFDX, analyses FIFO
	// output ports; mixed static-priority configurations are analysable
	// with the Network Calculus engine only.
	if len(pg.Net.VLs) == 0 {
		return nil, fmt.Errorf("trajectory: no virtual links")
	}
	prio := pg.Net.VLs[0].Priority
	for _, vl := range pg.Net.VLs {
		if vl.Priority != prio {
			return nil, fmt.Errorf("trajectory: VL %s has priority %d but VL %s has %d; the trajectory analysis supports FIFO (uniform priority) only — use netcalc for static-priority configurations",
				vl.ID, vl.Priority, pg.Net.VLs[0].ID, prio)
		}
	}
	if opts.PrefixMode == PrefixNC {
		if !isDefaultNC(nc) {
			ncOpts := netcalc.DefaultOptions()
			ncOpts.Parallel = opts.Parallel
			var err error
			if nc, err = netcalc.AnalyzeCtx(ctx, pg, ncOpts); err != nil {
				return nil, fmt.Errorf("trajectory: computing NC prefix bounds: %w", err)
			}
		}
		a.ncPrefix = nc.PrefixDelays
	}
	if err := a.prepare(); err != nil {
		return nil, err
	}
	return a, nil
}

// isDefaultNC reports whether nc holds the prefix bounds the engine's
// own PrefixNC run would compute: a result under netcalc.DefaultOptions.
// The worker count is ignored — every Parallel value is bit-identical.
func isDefaultNC(nc *netcalc.Result) bool {
	if nc == nil {
		return false
	}
	o := nc.Opts
	o.Parallel = 0
	return o == netcalc.DefaultOptions()
}

// Analyze runs the Trajectory analysis over a feed-forward port graph.
// Paths are independent analysis units, so they fan out over the
// bounded worker pool (Options.Parallel); results land indexed in the
// canonical path order and merge into the Result maps on the calling
// goroutine, which keeps every worker count bit-identical to the
// sequential run.
func Analyze(pg *afdx.PortGraph, opts Options) (*Result, error) {
	return AnalyzeCtx(context.Background(), pg, opts)
}

// AnalyzeCtx is Analyze with observability: when ctx carries an
// obs.Registry the engine counts paths, busy-period fixpoint rounds,
// candidate offsets and prefix-cache traffic; when it carries an
// obs.Tracer the run is wrapped in a "trajectory" span (the nested NC
// prefix analysis appears as its "netcalc" child) with one
// "path:<vl>/<idx>" span per analyzed path. Observation never
// influences the computation: results are bit-identical with or
// without it.
func AnalyzeCtx(ctx context.Context, pg *afdx.PortGraph, opts Options) (*Result, error) {
	return AnalyzeWithNCCtx(ctx, pg, opts, nil)
}

// AnalyzeWithNCCtx is AnalyzeCtx with the S_max prefix bounds taken
// from a Network Calculus result the caller already holds. When
// opts.PrefixMode is PrefixNC and nc was computed under
// netcalc.DefaultOptions (any Parallel), nc.PrefixDelays are exactly
// the bounds the engine's own prefix run would produce, so that run is
// skipped and the result is bit-identical to AnalyzeCtx. Any other nc —
// nil or a non-default option set — makes the engine run its own
// prefix analysis, exactly as AnalyzeCtx does; PrefixTrajectory mode
// bounds S_max recursively and ignores nc. nc must come from the same
// PortGraph: its prefix bounds are read, not checked.
func AnalyzeWithNCCtx(ctx context.Context, pg *afdx.PortGraph, opts Options, nc *netcalc.Result) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "trajectory")
	defer span.End()
	a, err := newAnalyzerWith(ctx, pg, opts, nc, false)
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
		_, psp := obs.StartSpan(ctx, "path:"+paths[i].String())
		defer psp.End()
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

// analyzePath bounds the end-to-end delay of one (VL, destination) path.
// ctx is checked inside the busy-period and candidate loops, so a
// pathological configuration can be cancelled mid-port.
func (a *analyzer) analyzePath(ctx context.Context, pid afdx.PathID) (PathDetail, error) {
	ports := a.pg.PathPorts(pid)
	vl := a.pg.VL(pid.VL)
	if len(ports) == 0 || vl == nil {
		return PathDetail{}, fmt.Errorf("trajectory: unknown path %v", pid)
	}
	a.m.paths.Inc()
	return a.analyzePortSeq(ctx, vl, ports, nil)
}

// analyzePortSeq bounds the latest complete transmission of a frame of vl
// over the given (prefix of its) port sequence, relative to its emission.
// visiting is the per-goroutine set of (VL, port) prefix computations on
// the current recursion chain (PrefixTrajectory cycle detection); nil at
// a recursion root.
//
// The work is dispatched to the flattened hot path (flat.go) unless the
// analyzer was built as a reference anchor; both produce bit-identical
// PathDetails (proven by the differential property tests in
// flat_test.go), so the choice is invisible to callers.
func (a *analyzer) analyzePortSeq(ctx context.Context, vl *afdx.VirtualLink, ports []afdx.PortID, visiting map[netcalc.FlowPortKey]bool) (PathDetail, error) {
	if a.reference {
		return a.analyzePortSeqRef(ctx, vl, ports, visiting)
	}
	return a.analyzePortSeqFlat(ctx, vl, ports, visiting, nil)
}

// transitionSum bounds the transition ("counted twice") packets of a
// port sequence: one largest-frame term per transition, attributed per
// Options (receiving node, departing node, or shared-flows refinement).
// A non-nil terms receives each summand, in summation order.
func (a *analyzer) transitionSum(ports []afdx.PortID, terms *[]TransitionTerm) float64 {
	deltaSum := 0.0
	add := func(at afdx.PortID, c float64) {
		deltaSum += c
		if terms != nil {
			*terms = append(*terms, TransitionTerm{Port: at, CUs: c})
		}
	}
	if a.opts.SharedTransition {
		// The bridging packet of transition h_k -> h_{k+1} crosses both
		// ports; bound it by the largest frame of the flows doing so.
		for k := 0; k+1 < len(ports); k++ {
			add(ports[k+1], a.maxSharedFrameTime(ports[k], ports[k+1]))
		}
	} else {
		from, to := 1, len(ports) // receiving-node convention: h_2 .. h_q
		if a.opts.DeltaAtFirstNode {
			from, to = 0, len(ports)-1 // departing-node convention: h_1 .. h_{q-1}
		}
		for k := from; k < to; k++ {
			add(ports[k], a.maxFrameTimeAt(ports[k]))
		}
	}
	return deltaSum
}

// sMax bounds the latest arrival time of a frame of vl at the given port,
// relative to its emission (0 at the flow's source port). In
// PrefixTrajectory mode the recursive computation is memoized in the
// shared prefix cache; visiting is this goroutine's recursion chain and
// detects cyclic prefix dependencies without mistaking another worker's
// in-flight computation for one.
func (a *analyzer) sMax(ctx context.Context, vl *afdx.VirtualLink, port afdx.PortID, visiting map[netcalc.FlowPortKey]bool) (float64, error) {
	key := netcalc.FlowPortKey{VL: vl.ID, Port: port}
	if a.opts.PrefixMode == PrefixNC {
		d, ok := a.ncPrefix[key]
		if !ok {
			a.m.ncMiss.Inc()
			return 0, fmt.Errorf("trajectory: no NC prefix bound for VL %s at %s", vl.ID, port)
		}
		// Hits are batched by the callers (interferenceSet and
		// mergeInterferers): one atomic Add per interference set, not
		// one per lookup.
		return d, nil
	}
	if d, ok := a.trajPrefix.get(key); ok {
		a.m.recHits.Inc()
		return d, nil
	}
	a.m.recMiss.Inc()
	if visiting[key] {
		return 0, fmt.Errorf("trajectory: cyclic prefix dependency at VL %s port %s", vl.ID, port)
	}
	prefix, onPath := a.prefixPorts(vl, port)
	if !onPath {
		// A flow is only ever queried at ports it crosses (it came out
		// of that port's flow list); reaching this is an engine bug, and
		// absorbing it as a zero prefix bound would silently turn the
		// bug into an optimistic S_max.
		return 0, fmt.Errorf("trajectory: internal error: VL %s does not cross port %s (S_max queried off-path)", vl.ID, port)
	}
	if len(prefix) == 0 {
		a.trajPrefix.put(key, 0)
		return 0, nil
	}
	if visiting == nil {
		visiting = map[netcalc.FlowPortKey]bool{}
	}
	visiting[key] = true
	det, err := a.analyzePortSeq(ctx, vl, prefix, visiting)
	delete(visiting, key)
	if err != nil {
		return 0, err
	}
	a.trajPrefix.put(key, det.DelayUs)
	return det.DelayUs, nil
}

// prefixPorts returns the ports a VL crosses strictly before the given
// port (on whichever of its paths contains that port; tree routing makes
// the prefix unique). The second result distinguishes "port is the VL's
// source hop" (empty prefix, true) from "the VL never crosses this port
// at all" (false) — the two used to collapse into the same nil return,
// letting a caller bug read an off-path query as a zero prefix bound.
func (a *analyzer) prefixPorts(vl *afdx.VirtualLink, port afdx.PortID) ([]afdx.PortID, bool) {
	for pi := range vl.Paths {
		seq := a.pg.PathPorts(afdx.PathID{VL: vl.ID, PathIdx: pi})
		for k, h := range seq {
			if h == port {
				return seq[:k], true
			}
		}
	}
	return nil, false
}

// maxFrameTimeAt returns max_j C_j over the flows crossing a port.
// With the flat index built, the max is precomputed (flow-order max
// accumulation, so the value is the bitwise same float either way).
func (a *analyzer) maxFrameTimeAt(id afdx.PortID) float64 {
	if a.flat != nil {
		if fp := a.flat.ports[id]; fp != nil {
			return fp.maxC
		}
	}
	p := a.pg.Ports[id]
	m := 0.0
	for _, f := range p.Flows {
		if c := f.VL.CMaxUs(p.RateBitsPerUs); c > m {
			m = c
		}
	}
	return m
}

// maxSharedFrameTime returns max_j C_j over the flows crossing both
// ports (the bridging-packet candidates of the SharedTransition option).
// The analyzed flow itself always crosses both, so the set is never
// empty on its own path.
func (a *analyzer) maxSharedFrameTime(prev, next afdx.PortID) float64 {
	p, q := a.pg.Ports[prev], a.pg.Ports[next]
	m := 0.0
	for _, f := range p.Flows {
		if q.FlowByVL(f.VL.ID) == nil {
			continue
		}
		if c := f.VL.CMaxUs(p.RateBitsPerUs); c > m {
			m = c
		}
	}
	return m
}

// busyFixpoint iterates a port workload function to its least fixpoint.
// It is the shared core of the reference sourceBusyPeriod and the flat
// engine's memoized busy periods: both hand it the same scalars
// (sumC = w(0) envelope burst, minC = smallest frame, util = port
// utilization, all accumulated in the port's flow order), so both
// converge to bit-identical values in the same number of rounds.
//
// The caller has already rejected util >= 1; under util < 1 the least
// fixpoint sits below the remaining-capacity bound bMax = sumC/(1-util),
// and every non-final round queues at least one more whole frame, so
// rounds are capped by (bMax - w(0)) / minC.
func busyFixpoint(ctx context.Context, src afdx.PortID, work func(float64) float64, sumC, minC, util float64) (float64, int, error) {
	b := work(0)
	bMax := sumC / (1 - util)
	maxIter := int((bMax-b)/minC) + 2
	for iter := 0; iter < maxIter; iter++ {
		// High-utilization ports take thousands of rounds to converge;
		// poll for cancellation at a stride that keeps the check free.
		if iter&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return 0, iter, fmt.Errorf("trajectory: busy-period fixpoint of port %s cancelled: %w", src, err)
			}
		}
		nb := work(b)
		if nb <= b+tol.At(b) {
			return nb, iter + 1, nil
		}
		b = nb
	}
	return 0, maxIter, fmt.Errorf("trajectory: busy period of port %s exceeded its capacity bound %.3f us (numerical non-convergence)", src, bMax)
}

// frameCount is N(x) = 1 + floor(max(0,x) / T): the maximum number of
// frames of a BAG-T flow with arrivals inside a window of length x
// (window endpoints included, hence the floor at exact multiples counts
// the edge frame). The count never drops below one: the flows are
// asynchronous, so whatever the jitter alignment A_ij, one frame of an
// interferer can always be queued just ahead of the analyzed frame at
// the meeting port.
func frameCount(x, t float64) int {
	if x < 0 {
		x = 0
	}
	return 1 + int(math.Floor((x+tol.At(x))/t))
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
