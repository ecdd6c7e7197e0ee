package trajectory

import (
	"context"
	"fmt"
	"math"
	"sync"

	"afdx/internal/afdx"
	"afdx/internal/core/tol"
)

// This file is the flattened trajectory hot path. The reference engine
// (reference_test.go) spends ~90% of its time hashing strings and
// rebuilding maps inside the two per-candidate/per-path inner loops;
// this implementation runs the same mathematics on dense, int-indexed
// state built once per analyzer:
//
//   - VLs are addressed by their dense ordinal (afdx.PortFlow.Ord, an
//     index into the ID-sorted VLOrder, so ordinal order == ID order)
//     instead of string map keys.
//   - Every port carries flat per-flow slices (transmission time, BAG,
//     NC prefix bound, serialization ratio, input-group slot), so the
//     interference-set and busy-period loops walk contiguous arrays.
//   - The serialization-group partition is precomputed per port and
//     instantiated once per path (a counting sort of the interferer
//     list), instead of rebuilt and re-sorted for every candidate
//     offset.
//   - The interference set is a q-way merge of the crossed ports' flow
//     lists, each already ascending in VL ordinal, so it comes out in
//     the reference's VL-ID order with no dedup table and no sort.
//   - Source-port busy periods are memoized per port — they are a pure
//     function of the port, recomputed per path by the reference.
//   - Candidate offsets are merged from the per-interferer ascending
//     step-point streams with a small binary heap, replacing
//     append-then-sort.Float64s.
//
// Bit-identity with the reference is a hard contract, enforced by the
// differential tests in flat_test.go: every float is accumulated in the
// exact order and association of the reference code, the group
// iteration order reproduces the reference's (port.String(), prev) key
// sort, and group members keep the VL-sorted member order. Do not
// "simplify" an accumulation here without checking the reference twin.
//
// Scratch-buffer ownership: all per-path transient state lives in a
// *scratch obtained from the flatIndex pool at the top of
// analyzePortSeqFlat and returned on exit. A scratch is owned by
// exactly one analyzePortSeqFlat invocation. Every buffer is reset by
// the code that fills it, so a scratch goes back to the pool as is.

// flatInterferer is one interference-set entry in flat form: ordinals
// and precomputed scalars only, no pointers into the model.
type flatInterferer struct {
	vl  int32 // dense VL ordinal (ID-sorted)
	pos int32 // index of the first shared port within the path sequence
	// grp is the entry's serialization-group slot: local to the port
	// while the set is being built, rebased to the path-global slot
	// space by regroupInterferers.
	grp      int32
	cUs      float64 // max transmission time over the shared ports
	aUs      float64 // window alignment A_ij
	bagUs    float64 // BAG of the interfering VL
	serRatio float64 // input-link rate / first-port rate
}

// busyMemo caches one port's busy-period fixpoint (value, rounds,
// error) — a pure function of the port, shared by every path sourced
// there.
type busyMemo struct {
	once   sync.Once
	busy   float64
	rounds int
	err    error
}

// flatPort is the per-port slab of the flat index: everything the hot
// loops need about one output port, in flow-list order (VL-ID sorted,
// matching afdx.Port.Flows).
type flatPort struct {
	id      afdx.PortID
	str     string // id.String(), the reference's group-sort key
	rate    float64
	latency float64
	maxC    float64 // largest frame transmission time at this port

	vls      []int32   // per flow: dense VL ordinal
	cUs      []float64 // per flow: CMaxUs at this port's rate
	bagUs    []float64 // per flow: BAG in us
	pref     []float64 // per flow: NC prefix bound at this port
	serRatio []float64 // per flow: serialization ratio of its input link
	grpOf    []int32   // per flow: local input-group index (prev-sorted)

	groups []afdx.InputGroup // the port's input groups, sorted by input node

	// Busy-period fixpoint inputs, accumulated in flow order exactly as
	// the reference sourceBusyPeriod does.
	sumC, minC, util float64
	busy             busyMemo
}

// busyPeriod returns the port's memoized busy-period bound and the
// fixpoint round count the computation took (re-reported for every
// path sourced at the port, so the deterministic busy-period counters
// match the reference's per-path recomputation exactly).
func (fp *flatPort) busyPeriod(ctx context.Context) (float64, int, error) {
	fp.busy.once.Do(func() {
		//detcheck:allow DET004: dimensionless utilization guard, scale-free by construction
		if fp.util >= 1-1e-12 {
			fp.busy.err = fmt.Errorf("trajectory: busy period of port %s does not converge (port utilization %.9g >= 1)", fp.id, fp.util)
			return
		}
		work := func(b float64) float64 {
			w := 0.0
			for j, c := range fp.cUs {
				w += float64(frameCount(b, fp.bagUs[j])) * c
			}
			return w
		}
		fp.busy.busy, fp.busy.rounds, fp.busy.err = busyFixpoint(ctx, fp.id, work, fp.sumC, fp.minC, fp.util)
	})
	return fp.busy.busy, fp.busy.rounds, fp.busy.err
}

// candStream is one interferer's ascending step-point stream inside the
// candidate merge heap: t = k*T - aUs, advanced by incrementing k. t is
// always recomputed from k (never t += T): the incremental sum drifts
// by an ulp after enough additions, and the bit-identity contract
// forbids that.
type candStream struct {
	t   float64
	k   float64
	T   float64
	aUs float64
}

// scratch is the per-invocation buffer set of the flat hot path. See
// the ownership rules in the file comment.
type scratch struct {
	inter   []flatInterferer
	regroup []flatInterferer // inter re-ordered group-major (counting sort)
	fps     []*flatPort      // the path's ports, resolved once
	sMin    []float64        // min arrival time of the analyzed VL per path port
	cursor  []int            // per path port: next flow of the interference merge
	// Serialization-group instantiation for the current path: path
	// positions sorted by port string, per-position slot bases, and
	// per-slot member ranges of regroup.
	posOrder     []int32
	slotBase     []int32
	grpCount     []int32
	grpStart     []int32
	grpNext      []int32
	grpPrevEmpty []bool
	cands        []float64
	heap         []candStream
}

// flatIndex is the dense per-analyzer state the flat hot path runs on,
// built by analyzer.prepare once the prefix bounds are known.
type flatIndex struct {
	vls   []*afdx.VirtualLink // ordinal -> VL (ID-sorted)
	ports map[afdx.PortID]*flatPort
	pool  sync.Pool // of *scratch
}

// prepare builds the flat hot-path index. newAnalyzer runs it once the
// prefix bounds are known. It fails, naming the first port in PortID
// order, when the NC result's flow bounds do not line up with the port
// graph's flows: a result of another graph.
func (a *analyzer) prepare() error {
	fl := &flatIndex{
		vls:   a.pg.VLOrder(),
		ports: make(map[afdx.PortID]*flatPort, len(a.pg.Ports)),
	}
	ids := make([]afdx.PortID, 0, len(a.pg.Ports))
	for id := range a.pg.Ports {
		ids = append(ids, id)
	}
	afdx.SortPortIDs(ids)
	for _, id := range ids {
		if got, want := len(a.nc.Ports[id].Flows), len(a.pg.Ports[id].Flows); got != want {
			return fmt.Errorf("trajectory: the NC result holds %d flow bounds at port %s, the port graph %d flows (a result of another graph?)", got, id, want)
		}
		fl.ports[id] = a.buildFlatPort(id)
	}
	fl.pool.New = func() any { return &scratch{} }
	a.flat = fl
	return nil
}

// buildFlatPort flattens one port: per-flow scalar slices, the input
// groups of the port graph (prev-sorted, the reference's group key
// order within a port), and the busy-period fixpoint inputs.
func (a *analyzer) buildFlatPort(id afdx.PortID) *flatPort {
	p := a.pg.Ports[id]
	bounds := a.nc.Ports[id].Flows
	n := len(p.Flows)
	fp := &flatPort{
		id:       id,
		str:      id.String(),
		rate:     p.RateBitsPerUs,
		latency:  p.LatencyUs,
		vls:      make([]int32, n),
		cUs:      make([]float64, n),
		bagUs:    make([]float64, n),
		pref:     make([]float64, n),
		serRatio: make([]float64, n),
		grpOf:    make([]int32, n),
		groups:   p.Groups,
		minC:     math.Inf(1),
	}
	for j, f := range p.Flows {
		c := f.VL.CMaxUs(p.RateBitsPerUs)
		fp.vls[j] = f.Ord
		fp.cUs[j] = c
		fp.bagUs[j] = f.VL.BAGUs()
		fp.grpOf[j] = f.Group
		fp.serRatio[j] = p.Groups[f.Group].RateBitsPerUs / p.RateBitsPerUs
		fp.pref[j] = bounds[j].PrefixUs
		// Busy-period inputs and the transition-term max, in the
		// reference's flow-order accumulation.
		fp.sumC += c
		if c < fp.minC {
			fp.minC = c
		}
		fp.util += c / f.VL.BAGUs()
		if c > fp.maxC {
			fp.maxC = c
		}
	}
	return fp
}

// analyzePortSeqFlat is the flat twin of analyzePortSeqRef. Same
// mathematics, same accumulation orders, dense state. A non-nil ex
// receives the decomposition at the critical offset, read off the
// scratch state the bound was computed from (see Explanation).
func (a *analyzer) analyzePortSeqFlat(ctx context.Context, vl *afdx.VirtualLink, ports []afdx.PortID, ex *Explanation) (PathDetail, error) {
	if err := ctx.Err(); err != nil {
		return PathDetail{}, fmt.Errorf("trajectory: analysis cancelled: %w", err)
	}
	fl := a.flat
	sc := fl.pool.Get().(*scratch)
	defer fl.pool.Put(sc)

	// Resolve the path's ports and the analyzed flow's min arrival
	// times (the reference's sMin map, now a dense slice).
	q := len(ports)
	sc.fps = sc.fps[:0]
	sc.sMin = sc.sMin[:0]
	acc := 0.0
	for _, h := range ports {
		fp := fl.ports[h]
		if fp == nil {
			return PathDetail{}, fmt.Errorf("trajectory: internal error: port %s missing from the flat index", h)
		}
		sc.fps = append(sc.fps, fp)
		sc.sMin = append(sc.sMin, acc)
		acc += vl.CMinUs(fp.rate) + fp.latency
	}

	sc.mergeInterferers()
	a.m.interferers.Observe(int64(len(sc.inter)))

	// Constant terms: technological latencies and the transition
	// ("counted twice") packets.
	lSum := 0.0
	for _, fp := range sc.fps {
		lSum += fp.latency
	}
	deltaSum := a.transitionSum(ports, nil)

	busy, rounds, err := sc.fps[0].busyPeriod(ctx)
	if err != nil {
		return PathDetail{}, err
	}
	a.m.busyFixes.Inc()
	a.m.busyIters.Add(int64(rounds))
	a.m.busyRounds.Observe(int64(rounds))

	nSlots := 0
	if a.opts.Grouping {
		nSlots = sc.regroupInterferers(q)
	}

	if err := sc.mergeCandidates(ctx, busy); err != nil {
		return PathDetail{}, err
	}
	a.m.candidates.Add(int64(len(sc.cands)))

	best, bestT := math.Inf(-1), 0.0
	for i, t := range sc.cands {
		// Candidate sets grow with busy period / BAG ratios; poll for
		// cancellation without paying a context lookup per offset.
		if i&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return PathDetail{}, fmt.Errorf("trajectory: candidate evaluation cancelled: %w", err)
			}
		}
		v := sc.interferenceAt(a.opts.Grouping, nSlots, t) + deltaSum + lSum - t
		if v > best {
			best, bestT = v, t
		}
	}
	if ex != nil {
		ex.DelayUs, ex.CriticalT, ex.LatencyUs = best, bestT, lSum
		ex.Interference = sc.interferenceTerms(a.flat.vls, a.opts.Grouping, nSlots, bestT)
		ex.InterferenceUs = sc.interferenceAt(a.opts.Grouping, nSlots, bestT)
		ex.TransitionUs = a.transitionSum(ports, &ex.Transitions)
	}
	return PathDetail{
		DelayUs:        best,
		BusyPeriodUs:   busy,
		CriticalT:      bestT,
		NumCandidates:  len(sc.cands),
		NumInterferers: len(sc.inter),
	}, nil
}

// mergeInterferers fills sc.inter with the path's interference set by a
// q-way merge of the crossed ports' flow lists. Each list ascends in VL
// ordinal (Port.Flows and VLOrder are both ID-sorted), so the merge
// emits the set in the reference's VL-ID order with no dedup table and
// no sort. Ties pop the lowest path position first, so a VL's entry is
// made at its first shared port — the reference's first occurrence —
// and its later occurrences only raise cUs to the max over the shared
// ports. One flow incidence is consumed per round, which bounds the
// loop by the path's incidence count.
func (sc *scratch) mergeInterferers() {
	sc.inter = sc.inter[:0]
	sc.cursor = grow(sc.cursor, len(sc.fps))
	total := 0
	for pos, fp := range sc.fps {
		sc.cursor[pos] = 0
		total += len(fp.vls)
	}
	for n := 0; n < total; n++ {
		pos, ord := -1, int32(0)
		for p, fp := range sc.fps {
			if j := sc.cursor[p]; j < len(fp.vls) && (pos < 0 || fp.vls[j] < ord) {
				pos, ord = p, fp.vls[j]
			}
		}
		fp := sc.fps[pos]
		j := sc.cursor[pos]
		sc.cursor[pos]++
		if last := len(sc.inter) - 1; last >= 0 && sc.inter[last].vl == ord {
			// Conservative with heterogeneous rates: charge the flow's
			// largest transmission time over the shared ports.
			if c := fp.cUs[j]; c > sc.inter[last].cUs {
				sc.inter[last].cUs = c
			}
			continue
		}
		sc.inter = append(sc.inter, flatInterferer{
			vl:       ord,
			pos:      int32(pos),
			grp:      fp.grpOf[j],
			cUs:      fp.cUs[j],
			aUs:      fp.pref[j] - sc.sMin[pos],
			bagUs:    fp.bagUs[j],
			serRatio: fp.serRatio[j],
		})
	}
}

// regroupInterferers instantiates the serialization-group partition for
// the current path: it rebases each interferer's local group index into
// a path-global slot space ordered by (port string, prev) — the
// reference's sorted group-key order — and counting-sorts the
// interferer list group-major into sc.regroup, preserving the VL-sorted
// member order within each slot. Returns the number of slots.
func (sc *scratch) regroupInterferers(q int) int {
	// Path positions in port-string order. Positions are unique ports
	// (feed-forward paths never revisit one), so the order is total;
	// insertion sort keeps the tiny sort allocation-free.
	sc.posOrder = sc.posOrder[:0]
	for i := 0; i < q; i++ {
		sc.posOrder = append(sc.posOrder, int32(i))
	}
	for i := 1; i < q; i++ {
		for j := i; j > 0 && sc.fps[sc.posOrder[j]].str < sc.fps[sc.posOrder[j-1]].str; j-- {
			sc.posOrder[j], sc.posOrder[j-1] = sc.posOrder[j-1], sc.posOrder[j]
		}
	}
	sc.slotBase = grow(sc.slotBase, q)
	nSlots := 0
	for _, pos := range sc.posOrder {
		sc.slotBase[pos] = int32(nSlots)
		nSlots += len(sc.fps[pos].groups)
	}
	sc.grpCount = grow(sc.grpCount, nSlots)
	sc.grpStart = grow(sc.grpStart, nSlots)
	sc.grpNext = grow(sc.grpNext, nSlots)
	sc.grpPrevEmpty = grow(sc.grpPrevEmpty, nSlots)
	for _, pos := range sc.posOrder {
		fp := sc.fps[pos]
		base := sc.slotBase[pos]
		for g, in := range fp.groups {
			sc.grpCount[base+int32(g)] = 0
			sc.grpPrevEmpty[base+int32(g)] = in.Prev == ""
		}
	}
	for i := range sc.inter {
		it := &sc.inter[i]
		it.grp += sc.slotBase[it.pos] // rebase local -> global slot
		sc.grpCount[it.grp]++
	}
	off := int32(0)
	for g := 0; g < nSlots; g++ {
		sc.grpStart[g] = off
		sc.grpNext[g] = off
		off += sc.grpCount[g]
	}
	if cap(sc.regroup) < len(sc.inter) {
		sc.regroup = make([]flatInterferer, len(sc.inter))
	} else {
		sc.regroup = sc.regroup[:len(sc.inter)]
	}
	for i := range sc.inter {
		it := sc.inter[i]
		sc.regroup[sc.grpNext[it.grp]] = it
		sc.grpNext[it.grp]++
	}
	return nSlots
}

// interferenceAt is the flat twin of the reference interferenceAt /
// groupContribution pair: same per-member arithmetic in the same group
// and member order, over the precomputed partition.
func (sc *scratch) interferenceAt(grouping bool, nSlots int, t float64) float64 {
	if !grouping {
		sum := 0.0
		for i := range sc.inter {
			it := &sc.inter[i]
			sum += float64(frameCount(t+it.aUs, it.bagUs)) * it.cUs
		}
		return sum
	}
	sum := 0.0
	for g := 0; g < nSlots; g++ {
		if cnt := sc.grpCount[g]; cnt > 0 { // the reference's map has no entry for empty groups
			sum += groupAt(sc.regroup[sc.grpStart[g]:sc.grpStart[g]+cnt], sc.serialized(g), t).Us
		}
	}
	return sum
}

// serialized reports whether slot g's first frames are capped: its
// members arrive through an input link, or several share the source
// port.
func (sc *scratch) serialized(g int) bool {
	return !sc.grpPrevEmpty[g] || sc.grpCount[g] > 1
}

// groupAt is the per-group arithmetic of interferenceAt at offset t,
// shared with the explanation. Every frame after a member's first
// counts in full; the first frames of a serialized group are capped at
// the largest member frame plus the input-link throughput over the
// offset window (ratio identical across the group: one input link).
func groupAt(members []flatInterferer, serialized bool, t float64) groupTerm {
	full, firsts, maxC := 0.0, 0.0, 0.0
	for i := range members {
		m := &members[i]
		full += float64(frameCount(t+m.aUs, m.bagUs)-1) * m.cUs
		firsts += m.cUs
		if m.cUs > maxC {
			maxC = m.cUs
		}
	}
	g := groupTerm{FullUs: full, FirstUs: firsts, Us: full + firsts}
	if serialized {
		g.CapUs = maxC + t*members[0].serRatio
		if g.Capped = g.CapUs < g.FirstUs; g.Capped {
			g.Us = g.FullUs + g.CapUs
		}
	}
	return g
}

// interferenceTerms reads the interference decomposition at offset t
// off the current path's scratch state, in interferenceAt's order: one
// group per slot with grouping, one per interferer (N·C) without.
func (sc *scratch) interferenceTerms(vls []*afdx.VirtualLink, grouping bool, nSlots int, t float64) []InterferenceGroup {
	var out []InterferenceGroup
	add := func(members []flatInterferer, local int32, term groupTerm) {
		fp := sc.fps[members[0].pos]
		g := InterferenceGroup{Port: fp.id, InputLink: fp.groups[local].Prev, groupTerm: term}
		for _, m := range members {
			g.Members = append(g.Members, Member{VL: vls[m.vl].ID, Frames: frameCount(t+m.aUs, m.bagUs), CUs: m.cUs, AUs: m.aUs})
		}
		out = append(out, g)
	}
	if !grouping {
		for i, it := range sc.inter {
			full := float64(frameCount(t+it.aUs, it.bagUs)) * it.cUs
			add(sc.inter[i:i+1], it.grp, groupTerm{FullUs: full, Us: full})
		}
		return out
	}
	for g := 0; g < nSlots; g++ {
		if cnt := sc.grpCount[g]; cnt > 0 {
			members := sc.regroup[sc.grpStart[g] : sc.grpStart[g]+cnt]
			add(members, members[0].grp-sc.slotBase[members[0].pos], groupAt(members, sc.serialized(g), t))
		}
	}
	return out
}

// mergeCandidates fills sc.cands with the deduplicated ascending
// candidate offsets: t = 0 plus every step point k*T_j - A_ij inside
// the busy period. Each interferer contributes an already-ascending
// stream, so a binary min-heap merges them in sorted order and the
// dedup runs inline — the same multiset the reference enumerates,
// in the same order its sort.Float64s produces, hence the identical
// deduplicated list.
func (sc *scratch) mergeCandidates(ctx context.Context, busy float64) error {
	sc.cands = append(sc.cands[:0], 0)
	h := sc.heap[:0]
	for i := range sc.inter {
		it := &sc.inter[i]
		T := it.bagUs
		// Same start index as the reference candidateOffsets
		// (reference_test.go; see there for the k-domain tolerance
		// rationale).
		k := math.Ceil(it.aUs/T - tol.At(it.aUs/T))
		if k < 1 {
			k = 1
		}
		t := k*T - it.aUs
		// Advance past the below-zero prefix the reference's
		// `t > tol.At(t)` filter drops; t grows by T per step while the
		// tolerance grows by EpsRel*T at most, so once past it stays past.
		for !(t > tol.At(t)) {
			k++
			t = k*T - it.aUs
		}
		if tol.Gt(t, busy) {
			continue
		}
		h = append(h, candStream{t: t, k: k, T: T, aUs: it.aUs})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownCand(h, i)
	}
	last := 0.0
	for n := 0; len(h) > 0; n++ {
		if n&8191 == 8191 {
			if err := ctx.Err(); err != nil {
				sc.heap = h[:0]
				return fmt.Errorf("trajectory: candidate enumeration cancelled: %w", err)
			}
		}
		s := &h[0]
		if tol.Gt(s.t, last) {
			last = s.t
			sc.cands = append(sc.cands, s.t)
		}
		s.k++
		if nt := s.k*s.T - s.aUs; tol.Gt(nt, busy) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			s.t = nt
		}
		if len(h) > 1 {
			siftDownCand(h, 0)
		}
	}
	sc.heap = h[:0]
	return nil
}

// siftDownCand restores the min-heap order of h (by stream head t)
// from index i down.
func siftDownCand(h []candStream, i int) {
	//detcheck:allow DET006: descends one heap level per iteration, so it terminates after at most log2(len(h)) steps
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].t < h[l].t {
			m = r
		}
		if h[i].t <= h[m].t {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// grow returns s with length n, reusing its backing array when it fits.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
