package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"afdx/internal/afdx"
	"afdx/internal/core"
	"afdx/internal/lint"
	"afdx/internal/netcalc"
	"afdx/internal/obs"
	"afdx/internal/serve"
	"afdx/internal/trajectory"
)

// workers is the engine worker count of every analysis the benchmark
// times, cold or served: the two CPUs the benchmark is sized for.
const workers = 2

// certify is the certify-cold workload: the afdx-bounds pipeline run in
// process, one configuration per op, cycling through a fixed family in
// a seeded order. Nothing is cached between ops.
type certify struct {
	scale   scale
	seed    int64
	cfgs    [][]byte            // the family as uploaded JSON
	anchors [][]serve.PathBound // Parallel=1 CompareWith bounds per config
	order   []int               // op → config index, one seeded cycle at a time
	rng     *rand.Rand
	reg     *obs.Registry // traced ops count here
	bad     int           // ops whose bounds missed their anchor
}

// coldState is everything one cold certification holds when it is done.
type coldState struct {
	net    *afdx.Network
	pg     *afdx.PortGraph
	nc     *netcalc.Result
	tr     *trajectory.Result
	cmp    *core.Comparison
	bounds []serve.PathBound
	out    []byte
}

// certifyOnce runs the afdx-bounds pipeline on one uploaded
// configuration: decode, lint gate, port graph, WCNC, trajectory,
// combine, and the JSON encoding of the served bound list. Each stage
// runs under a span named after its layer, so a traced op's time
// splits by layer.
func certifyOnce(ctx context.Context, cfg []byte, parallel int) (*coldState, error) {
	ctx, root := obs.StartSpan(ctx, "bench.op")
	defer root.End()
	st := &coldState{}
	var err error

	_, sp := obs.StartSpan(ctx, "afdx.decode")
	st.net, err = afdx.DecodeJSON(bytes.NewReader(cfg))
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "lint")
	rep := lint.Run(st.net, lint.DefaultOptions())
	sp.End()
	if rep.HasErrors() {
		return nil, fmt.Errorf("lint rejected %s: %d error(s)", st.net.Name, rep.Errors)
	}
	_, sp = obs.StartSpan(ctx, "afdx.build")
	st.pg, err = afdx.BuildPortGraph(st.net, afdx.Strict)
	sp.End()
	if err != nil {
		return nil, err
	}
	ncOpts := netcalc.DefaultOptions()
	ncOpts.Parallel = parallel
	if st.nc, err = netcalc.AnalyzeCtx(ctx, st.pg, ncOpts); err != nil {
		return nil, err
	}
	trOpts := trajectory.DefaultOptions()
	trOpts.Parallel = parallel
	if st.tr, err = trajectory.AnalyzeCtx(ctx, st.pg, trOpts); err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "core.combine")
	st.cmp, err = core.Combine(st.pg, st.nc, st.tr)
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "serve.encode")
	st.bounds = pathBounds(st.cmp)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(st.bounds)
	st.out = buf.Bytes()
	sp.End()
	return st, err
}

// pathBounds renders a comparison as the served bound list, in the
// canonical (VL, path index) order the serving layer uses.
func pathBounds(cmp *core.Comparison) []serve.PathBound {
	ids := make([]afdx.PathID, 0, len(cmp.PerPath))
	for pid := range cmp.PerPath {
		ids = append(ids, pid)
	}
	afdx.SortPathIDs(ids)
	out := make([]serve.PathBound, len(ids))
	for i, pid := range ids {
		pc := cmp.PerPath[pid]
		out[i] = serve.PathBound{
			Path: pid.String(), NCUs: pc.NCUs, TrajectoryUs: pc.TrajectoryUs,
			BestUs: pc.BestUs, MinUs: pc.MinUs, JitterUs: pc.JitterUs,
		}
	}
	return out
}

// sameBounds reports whether two bound lists are identical bit for bit.
func sameBounds(a, b []serve.PathBound) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// warmPasses is the number of untimed passes over the family that
// set-up makes; the median of their pipeline times is setup_s. One
// pipeline varies by about ±15 % from run to run, and a second pass is
// no faster than the first, so two passes give the median twice the
// samples.
const warmPasses = 2

// setup generates the family, runs the untimed warm-up passes over it
// (their pipeline times are the set-up times), and computes each
// config's anchor with a sequential CompareWith, which every warm-up op
// must match.
func (c *certify) setup(ctx context.Context) ([]time.Duration, error) {
	nets, err := c.scale.certify()
	if err != nil {
		return nil, err
	}
	for _, net := range nets {
		cfg, err := json.Marshal(net)
		if err != nil {
			return nil, err
		}
		c.cfgs = append(c.cfgs, cfg)
	}
	var times []time.Duration
	var warm [][]serve.PathBound // bounds of warm-up op k, config k % len(nets)
	for pass := 0; pass < warmPasses; pass++ {
		for i, cfg := range c.cfgs {
			start := time.Now()
			st, err := certifyOnce(ctx, cfg, workers)
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", nets[i].Name, err)
			}
			times = append(times, time.Since(start))
			warm = append(warm, st.bounds)
		}
	}
	for _, net := range nets {
		pg, err := afdx.BuildPortGraph(net, afdx.Strict)
		if err != nil {
			return nil, err
		}
		nc, tr := netcalc.DefaultOptions(), trajectory.DefaultOptions()
		nc.Parallel, tr.Parallel = 1, 1
		cmp, err := core.CompareWith(pg, nc, tr)
		if err != nil {
			return nil, fmt.Errorf("anchor %s: %w", net.Name, err)
		}
		c.anchors = append(c.anchors, pathBounds(cmp))
	}
	for k, b := range warm {
		if !sameBounds(b, c.anchors[k%len(nets)]) {
			c.bad++
		}
	}
	c.rng = rand.New(rand.NewSource(c.seed))
	c.reg = obs.NewRegistry()
	return times, nil
}

// pick returns the next op's configuration: the family in a fresh
// seeded permutation every cycle.
func (c *certify) pick() int {
	if len(c.order) == 0 {
		c.order = c.rng.Perm(len(c.cfgs))
	}
	k := c.order[0]
	c.order = c.order[1:]
	return k
}

func (c *certify) op(ctx context.Context, traced bool) opResult {
	k := c.pick()
	var tracer *obs.Tracer
	if traced {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(obs.WithRegistry(ctx, c.reg), tracer)
	}
	start := time.Now()
	st, err := certifyOnce(ctx, c.cfgs[k], workers)
	r := opResult{latency: time.Since(start)}
	if err != nil || !sameBounds(st.bounds, c.anchors[k]) {
		r.failed = true
	}
	if !traced {
		return r
	}
	r.events = tracer.Events()
	r.layers = map[string]float64{}
	for layer, us := range partition(r.events) {
		if name, ok := coldLayers[layer]; ok {
			ms := float64(us) / 1e3
			r.layers[name] = ms
			r.inSum += ms
		}
	}
	return r
}

// coldLayers names the metric of each pipeline stage's span.
var coldLayers = map[string]string{
	"afdx.decode":  "afdx.decode_ms",
	"lint":         "lint.ms",
	"afdx.build":   "afdx.build_ms",
	"netcalc":      "netcalc.self_ms",
	"trajectory":   "trajectory.self_ms",
	"core.combine": "core.combine_ms",
	"serve.encode": "serve.encode_ms",
}

func (c *certify) registry() *obs.Registry { return c.reg }

// finish measures what one cold certification keeps live — the decoded
// network, port graph, both engine results, the comparison and the
// encoded answer — as the median over the family's first three configs.
func (c *certify) finish(ctx context.Context) (float64, int, error) {
	var heaps []float64
	for k := 0; k < len(c.cfgs) && k < 3; k++ {
		without := liveHeap()
		st, err := certifyOnce(ctx, c.cfgs[k], workers)
		if err != nil {
			return 0, 0, err
		}
		with := liveHeap()
		runtime.KeepAlive(st)
		heaps = append(heaps, heapMiB(with, without))
	}
	return quantile(heaps, 0.5), c.bad, nil
}

func (c *certify) close() {}
