// Package conformance is the cross-engine differential-testing oracle:
// it drives the configuration generator to produce families of valid
// AFDX networks, runs every delay engine on each (simulator, exact
// offset search, Trajectory, Network Calculus — sequentially and in
// parallel), and asserts the invariant lattice that relates them:
//
//	observed (sim)  ≤  achievable (exact)  ≤  min(Trajectory, WCNC)
//
// plus the structural invariants the paper's combined method rests on —
// the combined bound is exactly the per-path minimum of the two
// analyses, the grouping refinement never loosens a bound, tightening a
// traffic contract (doubling a BAG, shrinking s_max) never increases
// any bound (metamorphic monotonicity), and the parallel engines are
// bit-identical to their sequential runs and across repeated runs.
//
// Soundness comparisons against the Trajectory engine use the
// *ungrouped* variant: the published grouped formulation is optimistic
// in corner cases (see README, "Known optimism of the grouped
// trajectory method"), so the repository's soundness convention
// sandwiches the simulator against Network Calculus and the ungrouped
// Trajectory bound. The grouped variant is still exercised by the
// grouping-monotonicity and combined-minimum invariants, and the
// behavioural tier counts, without failing, the paths whose largest
// witness exceeds the certified bound (core.Certify's Best): each such
// path proves that bound unsound there.
//
// On a violation the shrinker (shrink.go) minimises the configuration
// to a smallest reproducing network, which lands in the replay corpus
// under testdata/ and is re-run forever after by plain `go test`.
package conformance

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"afdx/internal/afdx"
	"afdx/internal/core"
	"afdx/internal/core/tol"
	"afdx/internal/exact"
	"afdx/internal/netcalc"
	"afdx/internal/sim"
	"afdx/internal/trajectory"
)

// Invariant identifies one checked relation of the lattice.
type Invariant string

// The invariant lattice. Each constant names one relation the oracle
// asserts on every configuration it checks.
const (
	// InvSimVsNC: no simulated delay exceeds the Network Calculus bound.
	InvSimVsNC Invariant = "sim-vs-nc"
	// InvSimVsTrajectory: no simulated delay exceeds the ungrouped
	// Trajectory bound (the sound variant; see the package comment).
	InvSimVsTrajectory Invariant = "sim-vs-trajectory"
	// InvSimVsExact: the pinned-offset simulation never beats the exact
	// offset search (its schedule is one of the search's grid points).
	InvSimVsExact Invariant = "sim-vs-exact"
	// InvExactVsBounds: the exact search's achievable delays stay below
	// min(WCNC, ungrouped Trajectory).
	InvExactVsBounds Invariant = "exact-vs-bounds"
	// InvCombinedMin: the certified comparison (core.Certify) equals
	// the per-path minimum of the two grouped bounds, and its
	// per-engine columns are bit-identical to the oracle's own engine
	// runs.
	InvCombinedMin Invariant = "combined-min"
	// InvGroupingTightens: enabling the grouping (serialization)
	// refinement never loosens a bound, in either engine.
	InvGroupingTightens Invariant = "grouping-tightens"
	// InvMonotoneBAG: doubling one VL's BAG (less traffic) never
	// increases any path bound of either engine.
	InvMonotoneBAG Invariant = "monotone-bag"
	// InvMonotoneSMax: shrinking one VL's s_max (less traffic) never
	// increases any path bound of either engine.
	InvMonotoneSMax Invariant = "monotone-smax"
	// InvParallelParity: a multi-worker run is bit-identical to the
	// sequential run, for both engines.
	InvParallelParity Invariant = "parallel-parity"
	// InvRepeatability: re-running an engine on the same input yields
	// bit-identical results (pins the PR 2 map-iteration float wobble).
	InvRepeatability Invariant = "repeatability"
	// InvServedParity: the answers a live afdx-serve daemon returns over
	// HTTP for a seeded upload + delta script — JSON round-trip, session
	// manager and serialized executor included — are bit-identical to
	// cold engine runs on the replayed configurations, at worker counts
	// 1 and ParityWorkers.
	InvServedParity Invariant = "served-parity"
)

// Violation is one failed invariant on one configuration.
type Violation struct {
	Invariant Invariant   `json:"invariant"`
	Path      afdx.PathID `json:"path,omitempty"`
	// Got and Bound are the two sides of the violated relation
	// (Got should not have exceeded Bound).
	Got    float64 `json:"got"`
	Bound  float64 `json:"bound"`
	Detail string  `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: path %s: %.9g > %.9g (%s)", v.Invariant, v.Path, v.Got, v.Bound, v.Detail)
}

// Engines bundles the analysis entry points the oracle drives. Tests
// inject faulty wrappers here to prove the oracle catches engine bugs;
// production use keeps DefaultEngines. Each entry point takes the
// observability context (see internal/obs): the oracle threads the
// campaign's context through so engine spans and counters nest under
// the per-configuration span. Trajectory takes the NC result whose
// prefix bounds it may share (trajectory.AnalyzeWithNCCtx; nil runs a
// private prefix analysis).
type Engines struct {
	NC         func(ctx context.Context, pg *afdx.PortGraph, opts netcalc.Options) (*netcalc.Result, error)
	Trajectory func(ctx context.Context, pg *afdx.PortGraph, opts trajectory.Options, nc *netcalc.Result) (*trajectory.Result, error)
	Sim        func(ctx context.Context, pg *afdx.PortGraph, cfg sim.Config) (*sim.Result, error)
	Exact      func(ctx context.Context, pg *afdx.PortGraph, opts exact.Options) (*exact.Result, error)
}

// DefaultEngines returns the real analysis engines.
func DefaultEngines() Engines {
	return Engines{
		NC:         netcalc.AnalyzeCtx,
		Trajectory: trajectory.AnalyzeWithNCCtx,
		Sim:        sim.RunCtx,
		Exact:      exact.SearchCtx,
	}
}

// Oracle checks the invariant lattice on one configuration at a time.
// The zero value is not useful; start from NewOracle.
type Oracle struct {
	Engines Engines
	// MaxExactVLs bounds the configurations the exponential exact
	// search is attempted on (0 disables the exact tier entirely).
	MaxExactVLs int
	// ExactGridDiv divides each BAG into this many grid steps for the
	// exact search (default 4).
	ExactGridDiv int
	// ParityWorkers is the worker count of the parallel-parity runs
	// (default 4; 1 degenerates the parity check to repeatability).
	ParityWorkers int
	// SkipMetamorphic disables the mutation-based monotonicity
	// invariants (used by the shrinker's inner loop, where re-checking
	// mutants of mutants only slows convergence).
	SkipMetamorphic bool
	// SimSeed seeds the randomized simulation run.
	SimSeed int64
	// Served enables the served-parity tier: a seeded delta script is
	// played against an in-process afdx-serve instance over real HTTP
	// and the recorded answers are re-derived cold. Off by default —
	// each check spins up a server and re-analyses every round twice —
	// and enabled by the campaign driver's -served flag and the serving
	// layer's own conformance test.
	Served bool
	// only, when non-empty, restricts CheckCtx to the tiers that can
	// produce that invariant. The shrinker sets it: its inner loop asks
	// one question — does THIS invariant still reproduce? — and
	// violations of other invariants are discarded there anyway, so
	// skipping their tiers changes nothing but the wall time.
	only Invariant
}

// NewOracle returns an oracle over the real engines with the default
// budgets: exact search up to 4 VLs on a quarter-BAG grid.
func NewOracle() *Oracle {
	return &Oracle{
		Engines:       DefaultEngines(),
		MaxExactVLs:   4,
		ExactGridDiv:  4,
		ParityWorkers: 4,
		SimSeed:       1,
	}
}

// leq is the ordering-invariant comparison: a ≤ b is accepted up to the
// repository-wide relative tolerance (internal/core/tol, rel 1e-9). The
// engines are deterministic, so the tolerance only absorbs the genuine
// float non-associativity between *different* computations (e.g. a sum
// of port bounds vs a busy-period maximisation); identity invariants
// (parity, repeatability, combined-minimum) use exact equality.
func leq(a, b float64) bool {
	return tol.Leq(a, b)
}

// Check runs the full invariant lattice on one validated network and
// returns every violation found (nil error, possibly empty slice), or
// an error when the configuration cannot be analysed at all (which is
// not a conformance violation: infeasible inputs are the linter's
// domain, not the oracle's).
func (o *Oracle) Check(net *afdx.Network) ([]Violation, error) {
	return o.CheckCtx(context.Background(), net)
}

// CheckCtx is Check with observability threaded through the context:
// every engine run the oracle performs inherits ctx's registry and
// tracer, so a traced campaign shows the full lattice of runs nested
// under each configuration's span.
func (o *Oracle) CheckCtx(ctx context.Context, net *afdx.Network) ([]Violation, error) {
	vs, _, err := o.check(ctx, net)
	return vs, err
}

// check is CheckCtx plus the number of paths whose largest witness
// exceeds the certified bound (see aboveBest). The count needs the
// certified comparison and the behavioural tier, so it is 0 when the
// oracle runs a subset of the tiers (the shrinker's inner loop).
func (o *Oracle) check(ctx context.Context, net *afdx.Network) ([]Violation, int, error) {
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		return nil, 0, fmt.Errorf("conformance: %w", err)
	}
	var vs []Violation

	// Tier selection: everything by default; restricted to the tiers
	// that can produce o.only during a shrink (see the field comment).
	want := func(invs ...Invariant) bool {
		if o.only == "" {
			return true
		}
		for _, iv := range invs {
			if iv == o.only {
				return true
			}
		}
		return false
	}
	doGrouping := want(InvGroupingTightens)
	doCombined := want(InvCombinedMin)
	doDeterminism := want(InvParallelParity, InvRepeatability)
	doBehaviour := want(InvSimVsNC, InvSimVsTrajectory, InvSimVsExact, InvExactVsBounds)
	doMeta := !o.SkipMetamorphic && want(InvMonotoneBAG, InvMonotoneSMax)
	doServed := o.Served && !o.SkipMetamorphic && want(InvServedParity)

	// Sequential reference runs of the engine variants each selected
	// tier reads. Both trajectory runs take their S_max prefix bounds
	// from the grouped NC run (every trajectory tier also needs ncG);
	// checkDeterminism's runs compute their own, so the parity and
	// repeatability tiers compare the shared prefix against a private
	// one bit for bit.
	var ncG, ncU *netcalc.Result
	var trG, trU *trajectory.Result
	if doGrouping || doCombined || doDeterminism || doBehaviour || doMeta {
		if ncG, err = o.Engines.NC(ctx, pg, netcalc.Options{Grouping: true, Parallel: 1}); err != nil {
			return nil, 0, fmt.Errorf("conformance: netcalc (grouped): %w", err)
		}
	}
	if doGrouping {
		if ncU, err = o.Engines.NC(ctx, pg, netcalc.Options{Grouping: false, Parallel: 1}); err != nil {
			return nil, 0, fmt.Errorf("conformance: netcalc (ungrouped): %w", err)
		}
	}
	if doGrouping || doCombined || doDeterminism {
		if trG, err = o.Engines.Trajectory(ctx, pg, trajectory.Options{Grouping: true, Parallel: 1}, ncG); err != nil {
			return nil, 0, fmt.Errorf("conformance: trajectory (grouped): %w", err)
		}
	}
	if doGrouping || doBehaviour || doMeta {
		if trU, err = o.Engines.Trajectory(ctx, pg, trajectory.Options{Grouping: false, Parallel: 1}, ncG); err != nil {
			return nil, 0, fmt.Errorf("conformance: trajectory (ungrouped): %w", err)
		}
	}

	paths := pg.Net.AllPaths()

	// Grouping never loosens a bound.
	if doGrouping {
		for _, pid := range paths {
			if g, u := ncG.PathDelays[pid], ncU.PathDelays[pid]; !leq(g, u) {
				vs = append(vs, Violation{InvGroupingTightens, pid, g, u, "netcalc grouped > ungrouped"})
			}
			if g, u := trG.PathDelays[pid], trU.PathDelays[pid]; !leq(g, u) {
				vs = append(vs, Violation{InvGroupingTightens, pid, g, u, "trajectory grouped > ungrouped"})
			}
		}
	}

	// The certified comparison is exactly min(WCNC, Trajectory) per
	// path, computed over the same engine results the oracle holds.
	// core.Certify re-runs the real engines, so this also cross-checks
	// the oracle's (possibly fault-injected) engine runs against the
	// library's cold ones.
	var cert *core.Comparison
	if doCombined {
		if cert, err = core.Certify(ctx, pg, 1); err != nil {
			return nil, 0, fmt.Errorf("conformance: combined analysis: %w", err)
		}
		for _, pid := range paths {
			pc := cert.PerPath[pid]
			if want := math.Min(pc.NCUs, pc.TrajectoryUs); pc.BestUs != want {
				vs = append(vs, Violation{InvCombinedMin, pid, pc.BestUs, want, "combined best != min(nc, trajectory)"})
			}
			if pc.NCUs != ncG.PathDelays[pid] {
				vs = append(vs, Violation{InvCombinedMin, pid, ncG.PathDelays[pid], pc.NCUs, "oracle nc run != combined nc column"})
			}
			if pc.TrajectoryUs != trG.PathDelays[pid] {
				vs = append(vs, Violation{InvCombinedMin, pid, trG.PathDelays[pid], pc.TrajectoryUs, "oracle trajectory run != combined trajectory column"})
			}
		}
	}

	// Parallel parity and repeatability: bit-identical results across
	// worker counts and across repeated runs.
	if doDeterminism {
		vs = append(vs, o.checkDeterminism(ctx, pg, ncG, trG)...)
	}

	// Behavioural tier: simulation (pinned and randomized offsets) and,
	// on small configurations, the exact offset search. Its witnesses
	// are also held against the certified bound, when the combined tier
	// computed it.
	above := 0
	if doBehaviour {
		bvs, witness := o.checkBehaviour(ctx, pg, ncG, trU)
		vs = append(vs, bvs...)
		if cert != nil {
			above = aboveBest(cert, witness)
		}
	}

	// Metamorphic tier: tightening a contract never loosens any bound.
	if doMeta {
		mvs, err := o.checkMetamorphic(ctx, net, ncG, trU)
		if err != nil {
			return nil, 0, err
		}
		vs = append(vs, mvs...)
	}

	// Served-parity tier: a live afdx-serve instance answers a seeded
	// delta script bit-identically to cold runs (skipped in the
	// shrinker's inner loop, like the metamorphic tier: both build
	// mutants of mutants there).
	if doServed {
		svs, err := o.checkServed(ctx, net)
		if err != nil {
			return nil, 0, err
		}
		vs = append(vs, svs...)
	}

	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Invariant != vs[j].Invariant {
			return vs[i].Invariant < vs[j].Invariant
		}
		if vs[i].Path != vs[j].Path {
			return vs[i].Path.String() < vs[j].Path.String()
		}
		return vs[i].Detail < vs[j].Detail
	})
	return vs, above, nil
}

// aboveBest counts the paths whose largest witness exceeds the
// certified bound, compared with tol.Leq like the hard tiers. Each such
// path proves the certified bound unsound there; the count is
// reported, not a violation, until that bound is made sound.
func aboveBest(cert *core.Comparison, witness map[afdx.PathID]float64) int {
	n := 0
	for _, pid := range sortedPathKeys(witness) {
		if !leq(witness[pid], cert.PerPath[pid].BestUs) {
			n++
		}
	}
	return n
}

// checkDeterminism asserts parallel parity and run-to-run repeatability
// of both engines against the sequential reference results. Its
// trajectory runs pass no NC result, so they compute their own prefix
// bounds: trRef, which shares the reference NC run's, must match them
// bit for bit.
func (o *Oracle) checkDeterminism(ctx context.Context, pg *afdx.PortGraph, ncRef *netcalc.Result, trRef *trajectory.Result) []Violation {
	var vs []Violation
	workers := o.ParityWorkers
	if workers <= 0 {
		workers = 4
	}
	if ncPar, err := o.Engines.NC(ctx, pg, netcalc.Options{Grouping: true, Parallel: workers}); err != nil {
		vs = append(vs, Violation{InvParallelParity, afdx.PathID{}, 0, 0, "netcalc parallel run failed: " + err.Error()})
	} else {
		vs = append(vs, diffPathDelays(InvParallelParity, "netcalc", ncRef.PathDelays, ncPar.PathDelays)...)
	}
	if trPar, err := o.Engines.Trajectory(ctx, pg, trajectory.Options{Grouping: true, Parallel: workers}, nil); err != nil {
		vs = append(vs, Violation{InvParallelParity, afdx.PathID{}, 0, 0, "trajectory parallel run failed: " + err.Error()})
	} else {
		vs = append(vs, diffPathDelays(InvParallelParity, "trajectory", trRef.PathDelays, trPar.PathDelays)...)
	}
	if ncAgain, err := o.Engines.NC(ctx, pg, netcalc.Options{Grouping: true, Parallel: 1}); err == nil {
		vs = append(vs, diffPathDelays(InvRepeatability, "netcalc", ncRef.PathDelays, ncAgain.PathDelays)...)
	}
	if trAgain, err := o.Engines.Trajectory(ctx, pg, trajectory.Options{Grouping: true, Parallel: 1}, nil); err == nil {
		vs = append(vs, diffPathDelays(InvRepeatability, "trajectory", trRef.PathDelays, trAgain.PathDelays)...)
	}
	return vs
}

// sortedPathKeys returns a per-path result map's keys in (VL, PathIdx)
// order. Every invariant check below iterates this slice rather than
// the map, so the violation lists are built in deterministic order at
// the source instead of relying on the final sort in Check (DET003).
func sortedPathKeys[V any](m map[afdx.PathID]V) []afdx.PathID {
	ids := make([]afdx.PathID, 0, len(m))
	for pid := range m {
		ids = append(ids, pid)
	}
	afdx.SortPathIDs(ids)
	return ids
}

// diffPathDelays reports every path whose two delay values are not
// bit-identical.
func diffPathDelays(inv Invariant, engine string, a, b map[afdx.PathID]float64) []Violation {
	var vs []Violation
	for _, pid := range sortedPathKeys(a) {
		da := a[pid]
		if db, ok := b[pid]; !ok || da != db {
			vs = append(vs, Violation{inv, pid, db, da,
				fmt.Sprintf("%s results differ across runs", engine)})
		}
	}
	return vs
}

// checkBehaviour runs the simulator (and on small configurations the
// exact search) and asserts the observed ≤ achievable ≤ bound chain. It
// also returns each path's largest witness over the runs that
// completed: both simulations and the exact search.
func (o *Oracle) checkBehaviour(ctx context.Context, pg *afdx.PortGraph, ncG *netcalc.Result, trU *trajectory.Result) ([]Violation, map[afdx.PathID]float64) {
	var vs []Violation
	witness := map[afdx.PathID]float64{}
	maxBag := 0.0
	for _, v := range pg.Net.VLs {
		if v.BAGUs() > maxBag {
			maxBag = v.BAGUs()
		}
	}
	horizon := 2 * maxBag

	bound := func(pid afdx.PathID) float64 {
		return math.Min(ncG.PathDelays[pid], trU.PathDelays[pid])
	}
	checkSim := func(r *sim.Result, label string) {
		for _, pid := range sortedPathKeys(r.Paths) {
			st := r.Paths[pid]
			witness[pid] = math.Max(witness[pid], st.MaxDelayUs)
			if !leq(st.MaxDelayUs, ncG.PathDelays[pid]) {
				vs = append(vs, Violation{InvSimVsNC, pid, st.MaxDelayUs, ncG.PathDelays[pid], label})
			}
			if !leq(st.MaxDelayUs, trU.PathDelays[pid]) {
				vs = append(vs, Violation{InvSimVsTrajectory, pid, st.MaxDelayUs, trU.PathDelays[pid], label})
			}
		}
	}

	// Pinned run: every VL starts at offset 0 — the all-zero grid point
	// of the exact search, simulated over the same horizon, so its
	// observations are a subset of the search's by construction.
	pinned := map[string]float64{}
	for _, v := range pg.Net.VLs {
		pinned[v.ID] = 0
	}
	pinnedRes, err := o.Engines.Sim(ctx, pg, sim.Config{
		Model: sim.GreedySources, DurationUs: horizon, OffsetsUs: pinned,
	})
	if err != nil {
		vs = append(vs, Violation{InvSimVsNC, afdx.PathID{}, 0, 0, "pinned simulation failed: " + err.Error()})
		return vs, witness
	}
	checkSim(pinnedRes, "pinned offsets (all zero)")

	// Randomized run: seeded random offsets over a longer horizon.
	randRes, err := o.Engines.Sim(ctx, pg, sim.Config{
		Model: sim.GreedySources, DurationUs: 4 * maxBag, Seed: o.SimSeed,
	})
	if err != nil {
		vs = append(vs, Violation{InvSimVsNC, afdx.PathID{}, 0, 0, "randomized simulation failed: " + err.Error()})
		return vs, witness
	}
	checkSim(randRes, fmt.Sprintf("random offsets (seed %d)", o.SimSeed))

	// Exact tier, gated on the exponential cost.
	if o.MaxExactVLs <= 0 || len(pg.Net.VLs) > o.MaxExactVLs {
		return vs, witness
	}
	div := o.ExactGridDiv
	if div <= 0 {
		div = 4
	}
	minBag := math.Inf(1)
	for _, v := range pg.Net.VLs {
		minBag = math.Min(minBag, v.BAGUs())
	}
	ex, err := o.Engines.Exact(ctx, pg, exact.Options{
		GridUs:     minBag / float64(div),
		Refine:     2,
		MaxCombos:  1 << 14,
		DurationUs: horizon,
	})
	if err != nil {
		// The grid overflowing MaxCombos is a budget miss, not a bug.
		return vs, witness
	}
	for _, pid := range sortedPathKeys(ex.Delays) {
		d := ex.Delays[pid]
		witness[pid] = math.Max(witness[pid], d)
		if !leq(d, bound(pid)) {
			vs = append(vs, Violation{InvExactVsBounds, pid, d, bound(pid), "exact search beat the analytic bounds"})
		}
	}
	for _, pid := range sortedPathKeys(pinnedRes.Paths) {
		if st := pinnedRes.Paths[pid]; !leq(st.MaxDelayUs, ex.Delays[pid]) {
			vs = append(vs, Violation{InvSimVsExact, pid, st.MaxDelayUs, ex.Delays[pid], "pinned simulation beat the exact search"})
		}
	}
	return vs, witness
}

// checkMetamorphic re-analyses two contract-tightened mutants of the
// network — one VL's BAG doubled, one VL's s_max halved — and asserts
// no path bound of either (sound-variant) engine increased.
func (o *Oracle) checkMetamorphic(ctx context.Context, net *afdx.Network, ncG *netcalc.Result, trU *trajectory.Result) ([]Violation, error) {
	var vs []Violation
	rng := rand.New(rand.NewSource(o.SimSeed))
	pick := func(ok func(*afdx.VirtualLink) bool) *afdx.VirtualLink {
		var cands []*afdx.VirtualLink
		for _, v := range net.VLs {
			if ok(v) {
				cands = append(cands, v)
			}
		}
		if len(cands) == 0 {
			return nil
		}
		return cands[rng.Intn(len(cands))]
	}

	check := func(mutant *afdx.Network, inv Invariant, what string) error {
		pg, err := afdx.BuildPortGraph(mutant, afdx.Strict)
		if err != nil {
			return fmt.Errorf("conformance: mutant (%s): %w", what, err)
		}
		nc, err := o.Engines.NC(ctx, pg, netcalc.Options{Grouping: true, Parallel: 1})
		if err != nil {
			return fmt.Errorf("conformance: mutant netcalc (%s): %w", what, err)
		}
		tr, err := o.Engines.Trajectory(ctx, pg, trajectory.Options{Grouping: false, Parallel: 1}, nc)
		if err != nil {
			return fmt.Errorf("conformance: mutant trajectory (%s): %w", what, err)
		}
		for _, pid := range sortedPathKeys(nc.PathDelays) {
			if base, ok := ncG.PathDelays[pid]; ok && !leq(nc.PathDelays[pid], base) {
				vs = append(vs, Violation{inv, pid, nc.PathDelays[pid], base, "netcalc bound grew after " + what})
			}
		}
		for _, pid := range sortedPathKeys(tr.PathDelays) {
			if base, ok := trU.PathDelays[pid]; ok && !leq(tr.PathDelays[pid], base) {
				vs = append(vs, Violation{inv, pid, tr.PathDelays[pid], base, "trajectory bound grew after " + what})
			}
		}
		return nil
	}

	if v := pick(func(v *afdx.VirtualLink) bool { return v.BAGMs < afdx.MaxBAGMs }); v != nil {
		mutant := net.Clone()
		mutant.VL(v.ID).BAGMs *= 2
		if err := check(mutant, InvMonotoneBAG, fmt.Sprintf("doubling BAG of %s", v.ID)); err != nil {
			return nil, err
		}
	}
	if v := pick(func(v *afdx.VirtualLink) bool { return v.SMaxBytes > afdx.MinFrameBytes }); v != nil {
		mutant := net.Clone()
		mv := mutant.VL(v.ID)
		mv.SMaxBytes = max(afdx.MinFrameBytes, mv.SMaxBytes/2)
		if mv.SMinBytes > mv.SMaxBytes {
			mv.SMinBytes = mv.SMaxBytes
		}
		if err := check(mutant, InvMonotoneSMax, fmt.Sprintf("halving s_max of %s", v.ID)); err != nil {
			return nil, err
		}
	}
	return vs, nil
}
