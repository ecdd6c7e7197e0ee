package conformance

import (
	"context"
	"fmt"
	"math/rand"

	"afdx/internal/afdx"
	"afdx/internal/incremental"
	"afdx/internal/netcalc"
	"afdx/internal/trajectory"
)

// enginePool holds the incremental caches the oracle's reference runs
// route through when Oracle.Incremental is set: one netcalc.Cache and
// one trajectory.Cache per engine option set (Parallel excluded — the
// caches are worker-count agnostic by contract). Trajectory caches
// share the default-options netcalc cache for their internal NC prefix
// runs, so a grouped trajectory run's prefix is a pure hit off the
// grouped NC reference run.
//
// A pool is single-writer, like the caches it holds: the shrinker owns
// a persistent one across its (sequential) candidate evaluations, and
// CheckCtx otherwise builds a transient per-call pool, keeping the
// shared Oracle safe under the campaign's config-level parallelism.
type enginePool struct {
	nc map[netcalc.Options]*netcalc.Cache
	tr map[trajectory.Options]*trajectory.Cache
}

func newEnginePool() *enginePool {
	return &enginePool{
		nc: map[netcalc.Options]*netcalc.Cache{},
		tr: map[trajectory.Options]*trajectory.Cache{},
	}
}

func (p *enginePool) ncCache(opts netcalc.Options) *netcalc.Cache {
	opts.Parallel = 0
	c := p.nc[opts]
	if c == nil {
		c = netcalc.NewCache(opts)
		// All the pool's caches share one per-graph fingerprint memo:
		// each candidate graph is fingerprinted once, not once per
		// option set.
		for _, donor := range p.nc {
			c.ShareGraphMemo(donor)
			break
		}
		p.nc[opts] = c
	}
	return c
}

func (p *enginePool) trCache(opts trajectory.Options) *trajectory.Cache {
	opts.Parallel = 0
	c := p.tr[opts]
	if c == nil {
		c = trajectory.NewCacheWithPrefix(opts, p.ncCache(netcalc.DefaultOptions()))
		p.tr[opts] = c
	}
	return c
}

// checkIncremental asserts the incremental-parity invariant: a what-if
// session's results after each delta of a tightening sequence are
// bit-identical to cold engine runs on the mutated configuration, and
// identical across session worker counts. The deltas are drawn
// deterministically from SimSeed (double one BAG, halve one s_max,
// drop one VL), so the checked sequence is a pure function of the
// configuration and seed.
func (o *Oracle) checkIncremental(ctx context.Context, net *afdx.Network) ([]Violation, error) {
	workers := o.ParityWorkers
	if workers <= 0 {
		workers = 4
	}
	mkOpts := func(par int) incremental.Options {
		return incremental.Options{
			Mode:       afdx.Strict,
			NC:         netcalc.Options{Grouping: true, Parallel: par},
			Trajectory: trajectory.Options{Grouping: true, Parallel: par},
		}
	}
	sessSeq, err := incremental.NewSession(net, mkOpts(1))
	if err != nil {
		return nil, fmt.Errorf("conformance: incremental session: %w", err)
	}
	sessPar, err := incremental.NewSession(net, mkOpts(workers))
	if err != nil {
		return nil, fmt.Errorf("conformance: incremental session: %w", err)
	}

	rng := rand.New(rand.NewSource(o.SimSeed))
	pick := func(cur *afdx.Network, ok func(*afdx.VirtualLink) bool) *afdx.VirtualLink {
		var cands []*afdx.VirtualLink
		for _, v := range cur.VLs {
			if ok(v) {
				cands = append(cands, v)
			}
		}
		if len(cands) == 0 {
			return nil
		}
		return cands[rng.Intn(len(cands))]
	}
	// Each delta is drawn against the session's *current* state, so the
	// sequence composes (e.g. the s_max halving may hit the VL whose BAG
	// the first delta doubled).
	nextDelta := func(step int) *incremental.Delta {
		cur := sessSeq.Network()
		switch step {
		case 0:
			if v := pick(cur, func(v *afdx.VirtualLink) bool { return v.BAGMs < afdx.MaxBAGMs }); v != nil {
				return &incremental.Delta{Op: incremental.OpSetBAG, VL: v.ID, BAGMs: v.BAGMs * 2}
			}
		case 1:
			if v := pick(cur, func(v *afdx.VirtualLink) bool { return v.SMaxBytes > afdx.MinFrameBytes }); v != nil {
				return &incremental.Delta{Op: incremental.OpSetSMax, VL: v.ID, SMaxBytes: maxInt(afdx.MinFrameBytes, v.SMaxBytes/2)}
			}
		case 2:
			if len(cur.VLs) >= 2 {
				v := cur.VLs[rng.Intn(len(cur.VLs))]
				return &incremental.Delta{Op: incremental.OpRemoveVL, VL: v.ID}
			}
		}
		return nil
	}

	var vs []Violation
	for step := 0; step < 3; step++ {
		d := nextDelta(step)
		if d == nil {
			continue
		}
		resSeq, err := sessSeq.WhatIf(ctx, *d)
		if err != nil {
			return nil, fmt.Errorf("conformance: incremental step %q: %w", d, err)
		}
		resPar, err := sessPar.WhatIf(ctx, *d)
		if err != nil {
			return nil, fmt.Errorf("conformance: incremental step %q (parallel): %w", d, err)
		}
		// Cold anchors: fresh engine runs on the mutated configuration,
		// outside any cache.
		pg, err := afdx.BuildPortGraph(sessSeq.Network(), afdx.Strict)
		if err != nil {
			return nil, fmt.Errorf("conformance: incremental step %q: %w", d, err)
		}
		ncCold, err := o.Engines.NC(ctx, pg, netcalc.Options{Grouping: true, Parallel: 1})
		if err != nil {
			return nil, fmt.Errorf("conformance: incremental step %q cold netcalc: %w", d, err)
		}
		trCold, err := o.Engines.Trajectory(ctx, pg, trajectory.Options{Grouping: true, Parallel: 1})
		if err != nil {
			return nil, fmt.Errorf("conformance: incremental step %q cold trajectory: %w", d, err)
		}
		label := fmt.Sprintf("after %q: ", d)
		vs = append(vs, diffPathDelays(InvIncrementalParity, label+"netcalc incremental vs cold", ncCold.PathDelays, resSeq.NC.PathDelays)...)
		vs = append(vs, diffPathDelays(InvIncrementalParity, label+"trajectory incremental vs cold", trCold.PathDelays, resSeq.Trajectory.PathDelays)...)
		vs = append(vs, diffPathDelays(InvIncrementalParity, label+"netcalc parallel vs sequential session", resSeq.NC.PathDelays, resPar.NC.PathDelays)...)
		vs = append(vs, diffPathDelays(InvIncrementalParity, label+"trajectory parallel vs sequential session", resSeq.Trajectory.PathDelays, resPar.Trajectory.PathDelays)...)
	}
	return vs, nil
}
