package trajectory

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"afdx/internal/afdx"
	"afdx/internal/core/tol"
)

// This file is the trajectory hot path. It runs the mathematics of
// DESIGN §5.2 on dense, int-indexed state built once per analyzer,
// instead of hashing strings and rebuilding maps inside the
// per-candidate and per-path inner loops:
//
//   - VLs are addressed by their dense ordinal (afdx.PortFlow.Ord, an
//     index into the ID-sorted VLOrder, so ordinal order == ID order)
//     instead of string map keys.
//   - Every port carries flat per-flow slices (transmission time, BAG,
//     NC prefix bound, serialization ratio, input-group slot), so the
//     interference-set and busy-period loops walk contiguous arrays.
//   - The interference set is built in one pass over the crossed
//     ports' flow lists: a bitmap over VL ordinals marks the VLs seen,
//     and a per-ordinal slot keeps the entry made at each VL's first
//     shared port. Walking the bitmap's set bits emits the set in
//     VL-ID order with no dedup table and no sort.
//   - The serialization-group partition is precomputed per port and
//     instantiated once per path: with grouping, the bitmap walk places
//     each entry straight into its group slot (a counting sort on the
//     slot counts taken during the build), instead of rebuilding and
//     re-sorting the groups for every candidate offset.
//   - Each port carries its rank among the sorted port strings, so the
//     per-path group order compares integers, not strings.
//   - Source-port busy periods are memoized per port: they are a pure
//     function of the port.
//   - Candidate offsets are merged from the per-interferer ascending
//     step-point streams with a small binary heap, replacing
//     append-then-sort.Float64s.
//
// Path digests pin every bound and detail bit for bit: golden_test.go,
// golden_full_test.go, and one digest per corpus and option set in the
// sweeps of oracle_test.go. So every float keeps its accumulation order
// and association: groups are summed in (port.String(), input node)
// key order through the port rank, and group members in VL-ID order.
// The sweeps' evaluator of the objective checks the mathematics only
// up to tol.At, and a reordered sum passes it: do not "simplify" an
// accumulation here without the digests.
//
// Scratch-buffer ownership: all per-path transient state lives in a
// *scratch obtained from the flatIndex pool at the top of
// analyzePortSeqFlat and returned on exit. A scratch is owned by
// exactly one analyzePortSeqFlat invocation. Every buffer is reset by
// the code that fills it, and the VL bitmap is cleared by the walk that
// reads it, so a scratch goes back to the pool as is.

// flatInterferer is one interference-set entry in flat form: ordinals
// and precomputed scalars only, no pointers into the model.
type flatInterferer struct {
	vl       int32   // dense VL ordinal (ID-sorted)
	pos      int32   // index of the first shared port within the path sequence
	grp      int32   // input-group index at that port (its flatPort.groups)
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
	rank    int32 // index among the sorted id.String() values: the group-sort key
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

	// Busy-period fixpoint inputs, accumulated in flow order.
	sumC, minC, util float64
	busy             busyMemo
}

// busyPeriod returns the port's memoized busy-period bound and the
// fixpoint round count the computation took (re-reported for every
// path sourced at the port, so the deterministic busy-period counters
// count one fixpoint per path).
//
// The bound is the least fixpoint of the port's workload function
// w(b) = Σ_j N_j(b)·C_j. A port at utilization 1 or more has none and
// fails at once. Below 1 the least fixpoint sits under the
// remaining-capacity bound bMax = sumC/(1-util), and every non-final
// round queues at least one more whole frame, so rounds are capped by
// (bMax - w(0)) / minC.
func (fp *flatPort) busyPeriod(ctx context.Context) (float64, int, error) {
	fp.busy.once.Do(func() {
		m := &fp.busy
		//detcheck:allow DET004: dimensionless utilization guard, scale-free by construction
		if fp.util >= 1-1e-12 {
			m.err = fmt.Errorf("trajectory: busy period of port %s does not converge (port utilization %.9g >= 1)", fp.id, fp.util)
			return
		}
		work := func(b float64) float64 {
			w := 0.0
			for j, c := range fp.cUs {
				w += float64(frameCount(b, fp.bagUs[j])) * c
			}
			return w
		}
		b := work(0)
		bMax := fp.sumC / (1 - fp.util)
		maxIter := int((bMax-b)/fp.minC) + 2
		for iter := 0; iter < maxIter; iter++ {
			// High-utilization ports take thousands of rounds to
			// converge; poll for cancellation at a stride that keeps the
			// check free.
			if iter&1023 == 1023 {
				if err := ctx.Err(); err != nil {
					m.rounds, m.err = iter, fmt.Errorf("trajectory: busy-period fixpoint of port %s cancelled: %w", fp.id, err)
					return
				}
			}
			nb := work(b)
			if nb <= b+tol.At(b) {
				m.busy, m.rounds = nb, iter+1
				return
			}
			b = nb
		}
		m.rounds, m.err = maxIter, fmt.Errorf("trajectory: busy period of port %s exceeded its capacity bound %.3f us (numerical non-convergence)", fp.id, bMax)
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
	// inter is the path's interference set: group-major with grouping
	// (slot order, VL-ID order within a slot), VL-ID order without.
	inter []flatInterferer
	fps   []*flatPort // the path's ports, resolved once
	sMin  []float64   // min arrival time of the analyzed VL per path port
	// The interference-set build: a bitmap over VL ordinals marking the
	// VLs seen on the path (all zero between builds), and per ordinal
	// the entry made at the VL's first shared port.
	seen  []uint64
	first []flatInterferer
	// Serialization-group instantiation for the current path: path
	// positions sorted by port rank, per-position slot bases, and
	// per-slot member ranges of inter.
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
	type keyed struct {
		str string
		fp  *flatPort
	}
	byStr := make([]keyed, 0, len(ids))
	for _, id := range ids {
		if got, want := len(a.nc.Ports[id].Flows), len(a.pg.Ports[id].Flows); got != want {
			return fmt.Errorf("trajectory: the NC result holds %d flow bounds at port %s, the port graph %d flows (a result of another graph?)", got, id, want)
		}
		fp := a.buildFlatPort(id)
		fl.ports[id] = fp
		byStr = append(byStr, keyed{id.String(), fp})
	}
	// Rank the ports by their strings; equal strings share a rank, so
	// the per-path sort orders them exactly as a string compare would.
	slices.SortFunc(byStr, func(x, y keyed) int { return strings.Compare(x.str, y.str) })
	for i, k := range byStr {
		k.fp.rank = int32(i)
		if i > 0 && k.str == byStr[i-1].str {
			k.fp.rank = byStr[i-1].fp.rank
		}
	}
	fl.pool.New = func() any { return &scratch{} }
	a.flat = fl
	return nil
}

// buildFlatPort flattens one port: per-flow scalar slices, the input
// groups of the port graph (prev-sorted: the group-key order within a
// port), and the busy-period fixpoint inputs.
func (a *analyzer) buildFlatPort(id afdx.PortID) *flatPort {
	p := a.pg.Ports[id]
	bounds := a.nc.Ports[id].Flows
	n := len(p.Flows)
	fp := &flatPort{
		id:       id,
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
		// Busy-period inputs and the transition-term max, accumulated
		// in flow order.
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

// analyzePortSeqFlat bounds one path: the maximum over the candidate
// offsets t of interference(t) + transition terms + latencies − t. A
// non-nil ex receives the decomposition at the critical offset, read
// off the scratch state the bound was computed from (see Explanation).
func (a *analyzer) analyzePortSeqFlat(ctx context.Context, vl *afdx.VirtualLink, ports []afdx.PortID, ex *Explanation) (PathDetail, error) {
	if err := ctx.Err(); err != nil {
		return PathDetail{}, fmt.Errorf("trajectory: analysis cancelled: %w", err)
	}
	fl := a.flat
	sc := fl.pool.Get().(*scratch)
	defer fl.pool.Put(sc)

	// Resolve the path's ports and the analyzed flow's min arrival
	// time at each of them.
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

	nSlots := sc.buildInterferers(len(fl.vls), a.opts.Grouping)
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

// buildInterferers fills sc.inter with the path's interference set and
// returns its group-slot count (0 without grouping). Ports are walked in
// path order and each port's flows in Port.Flows order: the first
// occurrence of a VL sets its bit in sc.seen and makes its entry in
// sc.first at that port, and later occurrences only raise cUs to the
// max over the shared ports. Walking the bitmap's set bits in ascending
// ordinal then emits the set in VL-ID order, clearing each word as it
// is read: with grouping straight into group-major order (a counting
// sort on the slot counts taken during the walk), without grouping as
// is.
func (sc *scratch) buildInterferers(nVLs int, grouping bool) int {
	nSlots := 0
	if grouping {
		nSlots = sc.groupSlots()
	}
	sc.seen = grow(sc.seen, (nVLs+63)/64)
	sc.first = grow(sc.first, nVLs)
	n := 0
	for pos, fp := range sc.fps {
		for j, ord := range fp.vls {
			w, bit := ord>>6, uint64(1)<<(ord&63)
			if sc.seen[w]&bit != 0 {
				// Conservative with heterogeneous rates: charge the flow's
				// largest transmission time over the shared ports.
				if c := fp.cUs[j]; c > sc.first[ord].cUs {
					sc.first[ord].cUs = c
				}
				continue
			}
			sc.seen[w] |= bit
			n++
			// Field by field: a composite-literal copy of the entry
			// stalls on store forwarding in this loop.
			e := &sc.first[ord]
			e.vl = ord
			e.pos = int32(pos)
			e.grp = fp.grpOf[j]
			e.cUs = fp.cUs[j]
			e.aUs = fp.pref[j] - sc.sMin[pos]
			e.bagUs = fp.bagUs[j]
			e.serRatio = fp.serRatio[j]
			if grouping {
				sc.grpCount[sc.slotBase[pos]+fp.grpOf[j]]++
			}
		}
	}
	off := int32(0)
	for g := 0; g < nSlots; g++ {
		sc.grpStart[g] = off
		sc.grpNext[g] = off
		off += sc.grpCount[g]
	}
	// The set never exceeds the VL count: sized to it once, inter is
	// never reallocated path by path.
	if cap(sc.inter) < nVLs {
		sc.inter = make([]flatInterferer, nVLs)
	}
	sc.inter = sc.inter[:n]
	k := 0
	for w, word := range sc.seen {
		sc.seen[w] = 0
		for ; word != 0; word &= word - 1 {
			it := &sc.first[w<<6+bits.TrailingZeros64(word)]
			if grouping {
				s := sc.slotBase[it.pos] + it.grp
				sc.inter[sc.grpNext[s]] = *it
				sc.grpNext[s]++
			} else {
				sc.inter[k] = *it
				k++
			}
		}
	}
	return nSlots
}

// groupSlots instantiates the serialization-group partition of the
// current path: each path position's slot base in port-rank order —
// the sorted (port string, input node) group-key order, as each port's
// groups are prev-sorted — with every slot count zeroed. Returns
// the number of slots.
func (sc *scratch) groupSlots() int {
	// Positions are unique ports (feed-forward paths never revisit one);
	// insertion sort keeps the tiny sort allocation-free and stable.
	q := len(sc.fps)
	sc.posOrder = sc.posOrder[:0]
	for i := 0; i < q; i++ {
		sc.posOrder = append(sc.posOrder, int32(i))
	}
	for i := 1; i < q; i++ {
		for j := i; j > 0 && sc.fps[sc.posOrder[j]].rank < sc.fps[sc.posOrder[j-1]].rank; j-- {
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
	for pos, fp := range sc.fps {
		base := sc.slotBase[pos]
		for g, in := range fp.groups {
			sc.grpCount[base+int32(g)] = 0
			sc.grpPrevEmpty[base+int32(g)] = in.Prev == ""
		}
	}
	return nSlots
}

// interferenceAt is the interference term at offset t: with grouping,
// groupAt's summand of every non-empty slot in slot order; without,
// N·C of every interferer in VL-ID order.
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
		if cnt := sc.grpCount[g]; cnt > 0 { // no interferer first meets the path through this group
			sum += groupAt(sc.inter[sc.grpStart[g]:sc.grpStart[g]+cnt], sc.serialized(g), t).Us
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
	add := func(members []flatInterferer, term groupTerm) {
		fp := sc.fps[members[0].pos]
		g := InterferenceGroup{Port: fp.id, InputLink: fp.groups[members[0].grp].Prev, groupTerm: term}
		for _, m := range members {
			g.Members = append(g.Members, Member{VL: vls[m.vl].ID, Frames: frameCount(t+m.aUs, m.bagUs), CUs: m.cUs, AUs: m.aUs})
		}
		out = append(out, g)
	}
	if !grouping {
		for i, it := range sc.inter {
			full := float64(frameCount(t+it.aUs, it.bagUs)) * it.cUs
			add(sc.inter[i:i+1], groupTerm{FullUs: full, Us: full})
		}
		return out
	}
	for g := 0; g < nSlots; g++ {
		if cnt := sc.grpCount[g]; cnt > 0 {
			members := sc.inter[sc.grpStart[g] : sc.grpStart[g]+cnt]
			add(members, groupAt(members, sc.serialized(g), t))
		}
	}
	return out
}

// mergeCandidates fills sc.cands with the deduplicated ascending
// candidate offsets: t = 0 plus every step point k*T_j - A_ij inside
// the busy period. Each interferer contributes an already-ascending
// stream, so a binary min-heap merges them in sorted order and the
// dedup runs inline: the list appending every step point, sorting and
// deduplicating would give (TestMergeCandidatesMatchesSort). The heap
// pops by t and the dedup reads only that sorted sequence, so the list
// does not depend on the order of sc.inter: the group-major set gives
// the candidates the VL-ordered one would.
func (sc *scratch) mergeCandidates(ctx context.Context, busy float64) error {
	sc.cands = append(sc.cands[:0], 0)
	h := sc.heap[:0]
	for i := range sc.inter {
		it := &sc.inter[i]
		T := it.bagUs
		// Step points t = k*T - A_ij need t > 0, i.e. k > A_ij/T, and
		// k >= 1 (N_j only jumps at whole windows). The tolerance is in
		// the k domain, relative to the ratio being rounded, so an A_ij
		// a rounding error above an exact multiple of T still starts at
		// that multiple; the loop below then steps past its t = 0.
		// Negating the ratio (ceil(-A_ij/T)) would start every
		// A_ij <= -T stream late and skip its first step points
		// (TestCandidateOffsetsExactMultiples).
		k := math.Ceil(it.aUs/T - tol.At(it.aUs/T))
		if k < 1 {
			k = 1
		}
		t := k*T - it.aUs
		// Advance past the steps at or below zero (those failing
		// t > tol.At(t)); t grows by T per step while the tolerance
		// grows by EpsRel*T at most, so once past it stays past.
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
