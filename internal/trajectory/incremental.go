package trajectory

import (
	"context"
	"fmt"

	"afdx/internal/afdx"
	"afdx/internal/netcalc"
	"afdx/internal/obs"
	"afdx/internal/parallel"
)

// Cache memoizes per-path trajectory outcomes across runs of the same
// engine options, for the incremental what-if layer
// (internal/incremental). It nests a netcalc.Cache for the engine's
// internal NC prefix run, so after a small delta both the prefix
// bounds and the unaffected paths are served from cache.
//
// # Validity and bit-identity
//
// analyzePortSeq for a path is a pure function of (a) the path's port
// sequence, (b) the full flow/contract/rate/latency state of every
// crossed port — rendered by netcalc.Cache.SignaturesFor — and (c) the
// NC prefix bound of every flow at every crossed port (the S_max terms).
// An entry stores exactly those inputs: the port sequence, each crossed
// port's signature, and each crossed port's prefix vector as the flat
// index of the computing run holds it (flatPort.pref, in the port's
// flow order). A cached path is reused only when the current run's
// values are equal — signatures as strings, prefix vectors element by
// element with float == — so a hit equals a recomputation bit for bit,
// and an incremental run is bit-identical to a cold run for any delta
// sequence.
//
// Reuse decisions are sequential (before the path fan-out), so the
// hit/miss counters are Deterministic at every Options.Parallel value.
// Like the netcalc cache, a Cache is bound to one option set (Parallel
// excluded) and is not safe for concurrent use.
type Cache struct {
	opts  Options
	bound bool
	nc    *netcalc.Cache
	paths map[afdx.PathID]*pathLine
}

// pathLine holds up to two generations of outcomes for one path, most
// recent first. Two slots make the cache proof against the A/B/A
// alternation of candidate sweeps (the conformance shrinker tries
// "cur minus VL i" for each i against an unchanged cur): the sweep's
// recomputation overwrites slot 0, while slot 1 keeps the outcome for
// the base values every next candidate flips back to.
type pathLine struct {
	slots [2]*pathEntry
}

// pathEntry is one cached path outcome together with the dependency
// values it was computed from, per crossed port (sigs and pref are
// parallel to ports). pref[i] is the computing run's flatPort.pref
// slice itself: a flat index never changes after prepare, so entries
// share it instead of copying it.
type pathEntry struct {
	ports []afdx.PortID
	sigs  []string
	pref  [][]float64
	det   PathDetail
}

// NewCache returns an empty path cache for the given engine options,
// with a private nested netcalc cache for the prefix runs.
func NewCache(opts Options) *Cache { return NewCacheWithPrefix(opts, nil) }

// NewCacheWithPrefix is NewCache with a caller-supplied netcalc cache
// backing the internal NC prefix runs (pass the cache of a session's
// own NC analysis when its options equal netcalc.DefaultOptions, so
// the prefix run becomes a pure cache hit). nil allocates a private
// one.
func NewCacheWithPrefix(opts Options, ncc *netcalc.Cache) *Cache {
	if ncc == nil {
		ncc = netcalc.NewCache(netcalc.DefaultOptions())
	}
	c := &Cache{nc: ncc}
	c.ensureOpts(opts)
	return c
}

func (c *Cache) ensureOpts(opts Options) {
	opts.Parallel = 0
	if !c.bound || c.opts != opts {
		c.opts = opts
		c.bound = true
		c.paths = map[afdx.PathID]*pathLine{}
	}
}

// PrefixNCCache exposes the nested netcalc cache backing the prefix
// runs (for sessions that share it with their own NC analysis).
func (c *Cache) PrefixNCCache() *netcalc.Cache { return c.nc }

// trIncrMetrics counts path-cache traffic of one incremental run; all
// Deterministic (sequential reuse decisions).
type trIncrMetrics struct {
	hits          *obs.Counter
	recomputes    *obs.Counter
	invalidations *obs.Counter
}

func newTrIncrMetrics(reg *obs.Registry) trIncrMetrics {
	if reg == nil {
		return trIncrMetrics{}
	}
	return trIncrMetrics{
		hits: reg.Counter("trajectory.incr_path_hits", obs.Deterministic,
			"path outcomes served from the incremental cache"),
		recomputes: reg.Counter("trajectory.incr_path_recomputes", obs.Deterministic,
			"paths recomputed by incremental runs (cold or invalidated)"),
		invalidations: reg.Counter("trajectory.incr_path_invalidations", obs.Deterministic,
			"cached path outcomes invalidated by a changed dependency"),
	}
}

// AnalyzeWithCache is AnalyzeWithCacheCtx without observability.
func AnalyzeWithCache(pg *afdx.PortGraph, opts Options, c *Cache) (*Result, error) {
	return AnalyzeWithCacheCtx(context.Background(), pg, opts, c)
}

// AnalyzeWithCacheCtx runs the Trajectory analysis, serving paths with
// unchanged dependencies from c and recomputing only the rest (see
// Cache). A nil cache degenerates to AnalyzeCtx, as does
// PrefixTrajectory mode: its recursive prefix bounds depend on the
// whole transitive upstream cone, which this cache's per-port
// dependency check does not model. The result is bit-identical to
// a cold AnalyzeCtx run on the same graph and options.
func AnalyzeWithCacheCtx(ctx context.Context, pg *afdx.PortGraph, opts Options, c *Cache) (*Result, error) {
	if c == nil || opts.PrefixMode != PrefixNC {
		return AnalyzeCtx(ctx, pg, opts)
	}
	c.ensureOpts(opts)
	ctx, span := obs.StartSpan(ctx, "trajectory")
	defer span.End()
	a, err := newAnalyzerShell(ctx, pg, opts)
	if err != nil {
		return nil, err
	}
	ncOpts := netcalc.DefaultOptions()
	ncOpts.Parallel = opts.Parallel
	nc, err := netcalc.AnalyzeWithCacheCtx(ctx, pg, ncOpts, c.nc)
	if err != nil {
		return nil, fmt.Errorf("trajectory: computing NC prefix bounds: %w", err)
	}
	a.ncPrefix = nc.PrefixDelays
	// The flat hot-path index reads the prefix bounds at build time, so
	// it is prepared only now that the cached NC run has supplied them.
	if err := a.prepare(); err != nil {
		return nil, err
	}

	im := newTrIncrMetrics(obs.RegistryFrom(ctx))
	sigs := c.nc.SignaturesFor(pg)
	paths := pg.Net.AllPaths()
	dets := make([]PathDetail, len(paths))
	todo := make([]int, 0, len(paths))
	for i, pid := range paths {
		line := c.paths[pid]
		if line != nil {
			if e := line.valid(pg.PathPorts(pid), sigs, a.flat); e != nil {
				dets[i] = e.det
				im.hits.Inc()
				continue
			}
			im.invalidations.Inc()
		}
		todo = append(todo, i)
	}
	im.recomputes.Add(int64(len(todo)))

	err = parallel.ForEachCtx(ctx, opts.Parallel, len(todo), func(k int) error {
		i := todo[k]
		_, psp := obs.StartSpan(ctx, "path:"+paths[i].String())
		defer psp.End()
		det, err := a.analyzePath(ctx, paths[i])
		dets[i] = det
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, i := range todo {
		seq := pg.PathPorts(paths[i])
		e := &pathEntry{
			ports: append([]afdx.PortID(nil), seq...),
			sigs:  make([]string, len(seq)),
			pref:  make([][]float64, len(seq)),
			det:   dets[i],
		}
		for k, h := range seq {
			e.sigs[k], e.pref[k] = sigs[h], a.flat.ports[h].pref
		}
		line := c.paths[paths[i]]
		if line == nil {
			line = &pathLine{}
			c.paths[paths[i]] = line
		}
		line.slots[1] = line.slots[0]
		line.slots[0] = e
	}

	res := &Result{
		Opts:       opts,
		PathDelays: make(map[afdx.PathID]float64, len(paths)),
		Details:    make(map[afdx.PathID]PathDetail, len(paths)),
	}
	for i, pid := range paths {
		res.PathDelays[pid] = dets[i].DelayUs
		res.Details[pid] = dets[i]
	}
	return res, nil
}

// valid returns the first slot of the line whose dependency values
// equal the current run's, promoting a slot-1 hit to the front.
func (line *pathLine) valid(seq []afdx.PortID, sigs map[afdx.PortID]string, fl *flatIndex) *pathEntry {
	for si, e := range line.slots {
		if e == nil || !e.matches(seq, sigs, fl) {
			continue
		}
		if si == 1 {
			line.slots[0], line.slots[1] = line.slots[1], line.slots[0]
		}
		return line.slots[0]
	}
	return nil
}

// matches reports whether the entry was computed from the current
// run's inputs: the same port sequence and, at every crossed port, the
// same signature and a bitwise-equal, fully present prefix vector.
func (e *pathEntry) matches(seq []afdx.PortID, sigs map[afdx.PortID]string, fl *flatIndex) bool {
	if len(seq) == 0 || len(e.ports) != len(seq) {
		return false
	}
	for i, h := range seq {
		fp := fl.ports[h]
		if e.ports[i] != h || e.sigs[i] != sigs[h] || len(e.pref[i]) != len(fp.pref) {
			return false
		}
		for j, v := range fp.pref {
			if !fp.prefOK[j] || e.pref[i][j] != v {
				return false
			}
		}
	}
	return true
}
