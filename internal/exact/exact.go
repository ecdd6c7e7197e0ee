// Package exact searches for worst-case end-to-end delays by exploring
// source emission offsets with the discrete-event simulator: a coarse
// grid enumeration over every VL's offset within its BAG, followed by
// per-path coordinate-descent refinement with step halving.
//
// The result is an achievable delay per path — a lower bound on the true
// worst case that converges toward it as the grid refines. Together with
// the analytic upper bounds of internal/netcalc and internal/trajectory
// it sandwiches the true worst case and quantifies each analysis'
// pessimism, the methodology of the companion paper (Charara et al.,
// ECRTS 2006) for small configurations.
//
// The search cost is exponential in the number of VLs; Options.MaxCombos
// guards against accidental use on large configurations.
package exact

import (
	"context"
	"fmt"
	"math"

	"afdx/internal/afdx"
	"afdx/internal/obs"
	"afdx/internal/sim"
)

// Options parameterises the search.
type Options struct {
	// GridUs is the coarse enumeration step (default: BAG/8 per VL).
	GridUs float64
	// Refine is the number of step-halving rounds of per-path coordinate
	// descent after the grid phase (0 disables refinement).
	Refine int
	// MaxCombos caps the size of the grid enumeration.
	MaxCombos int
	// DurationUs is the simulated horizon per evaluation (default:
	// twice the largest BAG).
	DurationUs float64
}

// DefaultOptions uses an eighth-of-BAG grid, ten refinement rounds and a
// one-million-combination budget.
func DefaultOptions() Options {
	return Options{Refine: 10, MaxCombos: 1_000_000}
}

// Result carries the search outcome.
type Result struct {
	// Delays is the best (largest) observed delay per path.
	Delays map[afdx.PathID]float64
	// Offsets is, per path, the emission offset assignment achieving it.
	Offsets map[afdx.PathID]map[string]float64
	// Evaluations counts simulator runs.
	Evaluations int
}

// MaxDelayUs returns the largest delay found on any path.
func (r *Result) MaxDelayUs() float64 {
	m := 0.0
	for _, d := range r.Delays {
		if d > m {
			//detcheck:allow DET001: running max over float64 values is a comparison, not arithmetic — no rounding, so the result is iteration-order independent
			m = d
		}
	}
	return m
}

type searcher struct {
	ctx   context.Context
	pg    *afdx.PortGraph
	opts  Options
	res   *Result
	evals int
}

// Search explores emission offsets and returns the worst achievable
// delays found. It fails when the grid enumeration would exceed
// MaxCombos.
func Search(pg *afdx.PortGraph, opts Options) (*Result, error) {
	return SearchCtx(context.Background(), pg, opts)
}

// SearchCtx is Search with observability: the run is one "exact" span,
// and the evaluation count and the simulator's counters land in the
// context registry; evaluations are counted, not traced. The search
// is fully deterministic, so the counts are too.
func SearchCtx(ctx context.Context, pg *afdx.PortGraph, opts Options) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "exact")
	defer span.End()
	vls := pg.Net.VLs
	if len(vls) == 0 {
		return nil, fmt.Errorf("exact: no virtual links")
	}
	if opts.MaxCombos <= 0 {
		opts.MaxCombos = DefaultOptions().MaxCombos
	}
	maxBag := 0.0
	for _, v := range vls {
		if v.BAGUs() > maxBag {
			maxBag = v.BAGUs()
		}
	}
	if opts.DurationUs <= 0 {
		opts.DurationUs = 2 * maxBag
	}
	// Per-VL grid sizes. The first VL is pinned to offset 0: delays are
	// invariant under a common shift of all offsets.
	steps := make([]int, len(vls))
	grids := make([]float64, len(vls))
	combos := 1
	for i, v := range vls {
		g := opts.GridUs
		if g <= 0 {
			g = v.BAGUs() / 8
		}
		if g > v.BAGUs() {
			g = v.BAGUs()
		}
		grids[i] = g
		steps[i] = int(math.Max(1, math.Round(v.BAGUs()/g)))
		if i == 0 {
			steps[i] = 1
		}
		if combos > opts.MaxCombos/steps[i] {
			return nil, fmt.Errorf("exact: grid enumeration exceeds MaxCombos=%d (use a coarser grid or fewer VLs)", opts.MaxCombos)
		}
		combos *= steps[i]
	}

	s := &searcher{
		// Simulator runs count into the registry but open no spans; the
		// grid loop below polls ctx for cancellation.
		ctx:  obs.WithRegistry(context.Background(), obs.RegistryFrom(ctx)),
		pg:   pg,
		opts: opts,
		res: &Result{
			Delays:  map[afdx.PathID]float64{},
			Offsets: map[afdx.PathID]map[string]float64{},
		},
	}

	// Phase 1: grid enumeration with an odometer.
	idx := make([]int, len(vls))
	offsets := map[string]float64{}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i, v := range vls {
			offsets[v.ID] = float64(idx[i]) * grids[i]
		}
		if err := s.evaluate(offsets); err != nil {
			return nil, err
		}
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < steps[k] {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}

	// Phase 2: per-path coordinate descent with step halving.
	for _, pid := range pg.Net.AllPaths() {
		if err := s.refine(pid, grids); err != nil {
			return nil, err
		}
	}
	s.res.Evaluations = s.evals
	if reg := obs.RegistryFrom(ctx); reg != nil {
		reg.Counter("exact.evaluations", obs.Deterministic,
			"simulator runs performed by the offset search").Add(int64(s.evals))
	}
	return s.res, nil
}

// evaluate runs one simulation and folds its per-path maxima into the
// result.
func (s *searcher) evaluate(offsets map[string]float64) error {
	s.evals++
	cfg := sim.Config{
		Model:      sim.GreedySources,
		DurationUs: s.opts.DurationUs,
		OffsetsUs:  offsets,
	}
	r, err := sim.RunCtx(s.ctx, s.pg, cfg)
	if err != nil {
		return err
	}
	for pid, st := range r.Paths {
		if st.MaxDelayUs > s.res.Delays[pid] {
			s.res.Delays[pid] = st.MaxDelayUs
			s.res.Offsets[pid] = cloneOffsets(offsets)
		}
	}
	return nil
}

// refine hill-climbs one path's offset assignment: for each VL in turn,
// try moving its offset by ±step (wrapping within the BAG) and keep
// improvements; halve the step each round.
func (s *searcher) refine(pid afdx.PathID, grids []float64) error {
	base := s.res.Offsets[pid]
	if base == nil {
		return nil // path never observed (no frame within the horizon)
	}
	cur := cloneOffsets(base)
	best := s.res.Delays[pid]
	step := maxOf(grids) / 2
	for round := 0; round < s.opts.Refine && step >= 0.5; round++ {
		improved := false
		for _, v := range s.pg.Net.VLs {
			for _, d := range []float64{+step, -step} {
				trial := cloneOffsets(cur)
				trial[v.ID] = wrap(trial[v.ID]+d, v.BAGUs())
				got, err := s.evaluatePath(pid, trial)
				if err != nil {
					return err
				}
				if got > best {
					best = got
					cur = trial
					improved = true
				}
			}
		}
		if !improved {
			step /= 2
		}
	}
	if best > s.res.Delays[pid] {
		s.res.Delays[pid] = best
		s.res.Offsets[pid] = cur
	}
	return nil
}

// evaluatePath runs one simulation and returns the given path's maximum.
func (s *searcher) evaluatePath(pid afdx.PathID, offsets map[string]float64) (float64, error) {
	s.evals++
	cfg := sim.Config{
		Model:      sim.GreedySources,
		DurationUs: s.opts.DurationUs,
		OffsetsUs:  offsets,
	}
	r, err := sim.RunCtx(s.ctx, s.pg, cfg)
	if err != nil {
		return 0, err
	}
	// Fold the observations of every path (they come for free).
	for p, st := range r.Paths {
		if st.MaxDelayUs > s.res.Delays[p] {
			s.res.Delays[p] = st.MaxDelayUs
			s.res.Offsets[p] = cloneOffsets(offsets)
		}
	}
	return r.Paths[pid].MaxDelayUs, nil
}

func cloneOffsets(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func wrap(x, period float64) float64 {
	x = math.Mod(x, period)
	if x < 0 {
		x += period
	}
	return x
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
