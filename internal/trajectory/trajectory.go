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

	"afdx/internal/afdx"
	"afdx/internal/core/tol"
	"afdx/internal/lint"
	"afdx/internal/netcalc"
	"afdx/internal/obs"
	"afdx/internal/parallel"
)

// Options selects analysis variants. The S_max prefix bounds always
// come from the default-option Network Calculus analysis.
type Options struct {
	// Grouping enables the serialization refinement (paper Fig. 4).
	Grouping bool
	// SharedTransition restricts each transition term to the flows that
	// cross BOTH ports of the transition: the busy-period-bridging
	// packet leaves the previous port and is queued at the next one, so
	// only such flows can supply it. This is the refinement the paper's
	// conclusion announces as future work ("adapt the trajectory
	// approach ... where the bounds are worse than network calculus");
	// it directly shrinks the small-frame pessimism of Figure 7.
	SharedTransition bool
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
// grouping on, receiving-node transition term.
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

// trMetrics is the engine's instrument bundle, resolved once per run
// from the context registry; all fields may be nil (the obs
// instruments no-op on nil receivers). The work set (one analysis per
// path) is fixed by the configuration, so every count is Deterministic.
type trMetrics struct {
	paths       *obs.Counter   // paths analysed
	busyFixes   *obs.Counter   // busy-period fixpoints computed
	busyIters   *obs.Counter   // total fixpoint rounds across them
	busyRounds  *obs.Histogram // rounds per fixpoint
	candidates  *obs.Counter   // candidate emission offsets evaluated
	interferers *obs.Histogram // interference-set size per path
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
	}
}

// analyzer carries the shared state of one Analyze run. After
// newAnalyzer returns it is read-only (bar the per-port busy-period
// memos of the flat index), so the per-path workers of Analyze share
// one analyzer.
type analyzer struct {
	pg   *afdx.PortGraph
	opts Options
	m    trMetrics
	// nc is the default-option NC result whose prefix bounds are the
	// S_max terms: nc.Ports[id].Flows[k].PrefixUs for pg.Ports[id].Flows[k].
	nc *netcalc.Result
	// flat is the dense per-run index the hot path runs on (flat.go),
	// built by prepare once the prefix bounds are known.
	flat *flatIndex
}

// newAnalyzer validates the configuration for trajectory analysis and
// prepares the shared state: the prefix bounds, from the caller's NC
// result (see AnalyzeWithNCCtx; nil runs a private prefix analysis),
// and the flat hot-path index.
func newAnalyzer(ctx context.Context, pg *afdx.PortGraph, opts Options, nc *netcalc.Result) (*analyzer, error) {
	a := &analyzer{
		pg:   pg,
		opts: opts,
		m:    newTrMetrics(obs.RegistryFrom(ctx)),
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
	if !isDefaultNC(nc) {
		ncOpts := netcalc.DefaultOptions()
		ncOpts.Parallel = opts.Parallel
		var err error
		if nc, err = netcalc.AnalyzeCtx(ctx, pg, ncOpts); err != nil {
			return nil, fmt.Errorf("trajectory: computing NC prefix bounds: %w", err)
		}
	}
	a.nc = nc
	if err := a.prepare(); err != nil {
		return nil, err
	}
	return a, nil
}

// isDefaultNC reports whether nc holds the prefix bounds the engine's
// own prefix run would compute: a result under netcalc.DefaultOptions.
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
// candidate offsets and interference-set sizes; when it carries an
// obs.Tracer the run is one "trajectory" span (the nested NC prefix
// analysis appears as its "netcalc" child; paths are counted, not
// traced). Observation never influences the computation: results are
// bit-identical with or without it.
func AnalyzeCtx(ctx context.Context, pg *afdx.PortGraph, opts Options) (*Result, error) {
	return AnalyzeWithNCCtx(ctx, pg, opts, nil)
}

// AnalyzeWithNCCtx is AnalyzeCtx with the S_max prefix bounds taken
// from a Network Calculus result the caller already holds. When nc was
// computed under netcalc.DefaultOptions (any Parallel), its per-flow
// PrefixUs are exactly the bounds the engine's own prefix run would
// produce, so that run is skipped and the result is bit-identical to
// AnalyzeCtx. Any other nc — nil or a non-default option set — makes
// the engine run its own prefix analysis, exactly as AnalyzeCtx does.
// nc must come from the same PortGraph: a port whose flow count differs
// from the graph's is an error, but the prefix bounds themselves are
// read, not checked.
func AnalyzeWithNCCtx(ctx context.Context, pg *afdx.PortGraph, opts Options, nc *netcalc.Result) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "trajectory")
	defer span.End()
	a, err := newAnalyzer(ctx, pg, opts, nc)
	if err != nil {
		return nil, err
	}
	paths := pg.Paths()
	res := &Result{
		Opts:       opts,
		PathDelays: make(map[afdx.PathID]float64, len(paths)),
		Details:    make(map[afdx.PathID]PathDetail, len(paths)),
	}
	dets := make([]PathDetail, len(paths))
	err = parallel.ForEachCtx(ctx, opts.Parallel, len(paths), func(i int) error {
		det, err := a.analyzePath(ctx, paths[i], nil)
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

// analyzePath bounds the end-to-end delay of one (VL, destination) path:
// the latest complete transmission of a frame at the last port,
// relative to its emission. ctx is checked inside the busy-period and
// candidate loops, so a pathological configuration can be cancelled
// mid-port. A non-nil ex receives the bound's decomposition (see
// analyzePortSeqFlat).
func (a *analyzer) analyzePath(ctx context.Context, pid afdx.PathID, ex *Explanation) (PathDetail, error) {
	ports := a.pg.PathPorts(pid)
	vl := a.pg.VL(pid.VL)
	if len(ports) == 0 || vl == nil {
		return PathDetail{}, fmt.Errorf("trajectory: unknown path %v", pid)
	}
	a.m.paths.Inc()
	return a.analyzePortSeqFlat(ctx, vl, ports, ex)
}

// transitionSum bounds the transition ("counted twice") packets of a
// port sequence: one largest-frame term per transition, at the
// receiving node, or over the flows crossing both ports with the
// SharedTransition refinement. A non-nil terms receives each summand,
// in summation order.
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
		// Receiving-node convention: h_2 .. h_q, each the largest frame
		// crossing the port (precomputed by the flat index).
		for k := 1; k < len(ports); k++ {
			add(ports[k], a.flat.ports[ports[k]].maxC)
		}
	}
	return deltaSum
}

// maxSharedFrameTime returns max_j C_j over the flows crossing both
// ports (the bridging-packet candidates of the SharedTransition option).
// The analyzed flow itself always crosses both, so the set is never
// empty on its own path.
func (a *analyzer) maxSharedFrameTime(prev, next afdx.PortID) float64 {
	p, q := a.pg.Ports[prev], a.pg.Ports[next]
	m := 0.0
	for _, f := range p.Flows {
		if _, ok := q.FlowIndex(f.VL.ID); !ok {
			continue
		}
		if c := f.VL.CMaxUs(p.RateBitsPerUs); c > m {
			m = c
		}
	}
	return m
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
