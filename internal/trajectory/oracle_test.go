package trajectory_test

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"maps"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/core/tol"
	"afdx/internal/netcalc"
	"afdx/internal/trajectory"
)

// This file holds the trajectory engine to an evaluator of the
// objective R_i(t) of DESIGN §5.2, written from the formula. Being in
// the external test package, it can call no engine helper: it builds
// each path's interference set, input groups and caps, transition
// terms, latencies, frame counts and source busy period from the port
// graph, the VL model and the WCNC prefix bounds.
//
// Per path, the sweeps assert the transcription (DelayUs is R at the
// engine's CriticalT, BusyPeriodUs the evaluator's busy period, both
// within tol.At) and, without grouping, the maximisation (no point of
// {0} ∪ step points ∪ busy-period end ∪ a grid beats DelayUs beyond
// tol.At). With grouping the engine maximises over the published
// candidate set, which misses the maximum where the caps make R rise
// between steps (ROADMAP item 1): those paths are logged, not failed.
// The bits are pinned by one digest per sweep corpus and variant.

// windowEdge is the evaluator's window-edge rule, in BAGs: N_j(x)
// counts a frame that arrives within windowEdge·BAG_j of the end of
// the window. At a step point t = k·BAG_j − A_ij the window
// x = t + A_ij ends on a frame of j up to rounding, and N_j counts
// both ends of its window.
const windowEdge = 1e-9

// frames is N_j(x) = 1 + ⌊max(0, x)/BAG_j⌋.
func frames(x, bag float64) float64 {
	return 1 + math.Floor(max(0, x)/bag+windowEdge)
}

// member is one flow of a path's interference set: its largest frame
// time over the ports it shares with the path, its alignment
// A_ij = S_max,j − S_min,i at the first of them, and its BAG.
type member struct{ c, a, bag float64 }

// group is the members that first meet the path at one port through
// one input link.
type group struct {
	members []member
	from    string  // the link's input node, "" for the source port's own flows
	ratio   float64 // input-link rate over the port's rate
	capped  bool    // grouping on, and the published rule: from != "" or two or more members
}

// objective is R_i(t) of one path.
type objective struct {
	groups []group
	fixed  float64 // transition terms plus latencies
	busy   float64 // busy period of the path's source port
}

// newObjective builds path pid's objective under opts, with the S_max
// prefix bounds of nc: nc.Ports[h].Flows[k] is port h's k-th flow.
func newObjective(pg *afdx.PortGraph, nc *netcalc.Result, opts trajectory.Options, pid afdx.PathID) *objective {
	vl := pg.VL(pid.VL)
	path := pg.PathPorts(pid)
	o := &objective{busy: busyPeriod(pg.Ports[path[0]])}
	type groupKey struct {
		at   int
		from string
	}
	groupOf := map[groupKey]int{}
	memberOf := map[*afdx.VirtualLink][2]int{}
	sMin := 0.0 // earliest arrival of the analysed frame at port h
	for k, h := range path {
		p := pg.Ports[h]
		o.fixed += p.LatencyUs
		if k > 0 {
			o.fixed += transition(pg, path[k-1], h, opts.SharedTransition)
		}
		for i, f := range p.Flows {
			c := f.VL.CMaxUs(p.RateBitsPerUs)
			if at, ok := memberOf[f.VL]; ok {
				m := &o.groups[at[0]].members[at[1]]
				m.c = max(m.c, c)
				continue
			}
			from := inputNode(f.VL, h)
			g, ok := groupOf[groupKey{k, from}]
			if !ok {
				g = len(o.groups)
				groupOf[groupKey{k, from}] = g
				ratio := 1.0
				if from != "" {
					ratio = pg.Ports[afdx.PortID{From: from, To: h.From}].RateBitsPerUs / p.RateBitsPerUs
				}
				o.groups = append(o.groups, group{from: from, ratio: ratio})
			}
			memberOf[f.VL] = [2]int{g, len(o.groups[g].members)}
			o.groups[g].members = append(o.groups[g].members, member{c: c, a: nc.Ports[h].Flows[i].PrefixUs - sMin, bag: f.VL.BAGUs()})
		}
		sMin += vl.CMinUs(p.RateBitsPerUs) + p.LatencyUs
	}
	for i := range o.groups {
		g := &o.groups[i]
		g.capped = opts.Grouping && (g.from != "" || len(g.members) > 1)
	}
	return o
}

// inputNode is the node j's frames come from at port h, read off j's
// routes: the node before h.From, or "" where j starts.
func inputNode(j *afdx.VirtualLink, h afdx.PortID) string {
	for _, route := range j.Paths {
		for n := 0; n+1 < len(route); n++ {
			if route[n] == h.From && route[n+1] == h.To {
				if n == 0 {
					return ""
				}
				return route[n-1]
			}
		}
	}
	panic(fmt.Sprintf("VL %s does not cross %v", j.ID, h))
}

// transition is the frame counted twice at the transition from port
// prev to port next: the largest frame crossing next or, with the
// shared refinement, the largest frame (at prev's rate) of the flows
// crossing both. Without it, prev stands for next, which every flow of
// next crosses.
func transition(pg *afdx.PortGraph, prev, next afdx.PortID, shared bool) float64 {
	p, q := pg.Ports[prev], pg.Ports[next]
	if !shared {
		p = q
	}
	m := 0.0
	for _, f := range p.Flows {
		if _, ok := q.FlowIndex(f.VL.ID); ok {
			m = max(m, f.VL.CMaxUs(p.RateBitsPerUs))
		}
	}
	return m
}

// busyPeriod is the least fixpoint of port p's workload
// b = Σ_j N_j(b)·C_j, iterated up from its burst. The engine rejects a
// port at utilisation 1 or more before the evaluator runs, so the
// iteration converges: once no count moves, the sum repeats exactly.
func busyPeriod(p *afdx.Port) float64 {
	work := func(b float64) float64 {
		w := 0.0
		for _, f := range p.Flows {
			w += frames(b, f.VL.BAGUs()) * f.VL.CMaxUs(p.RateBitsPerUs)
		}
		return w
	}
	b := work(0)
	for w := work(b); w > b; w = work(b) {
		b = w
	}
	return b
}

// at is R_i(t): every frame of a member after its first counts in
// full, and a capped group's first frames count at most its largest
// frame plus what its input link carries over t.
func (o *objective) at(t float64) float64 {
	r := o.fixed - t
	for _, g := range o.groups {
		later, firsts, maxC := 0.0, 0.0, 0.0
		for _, m := range g.members {
			later += (frames(t+m.a, m.bag) - 1) * m.c
			firsts += m.c
			maxC = max(maxC, m.c)
		}
		if g.capped {
			firsts = min(firsts, maxC+t*g.ratio)
		}
		r += later + firsts
	}
	return r
}

// points lists {0}, the busy-period end, every step point
// k·BAG_j − A_ij in (0, busy] and, for each capped group, the
// breakpoint (ΣC − maxC)/ratio where its cap meets its first frames.
// Between these points R is linear, and it jumps only upwards, at step
// points, so its maximum over the busy period is at one of them.
func (o *objective) points() []float64 {
	pts := []float64{0, o.busy}
	for _, g := range o.groups {
		firsts, maxC := 0.0, 0.0
		for _, m := range g.members {
			for k := max(1, math.Ceil(m.a/m.bag)); k*m.bag-m.a <= o.busy; k++ {
				if t := k*m.bag - m.a; t > 0 {
					pts = append(pts, t)
				}
			}
			firsts += m.c
			maxC = max(maxC, m.c)
		}
		if t := (firsts - maxC) / g.ratio; g.capped && t > 0 && t <= o.busy {
			pts = append(pts, t)
		}
	}
	return pts
}

// grid lists n evenly spaced offsets over [0, busy].
func (o *objective) grid(n int) []float64 {
	pts := make([]float64, n)
	for i := range pts {
		pts[i] = o.busy * float64(i) / float64(n-1)
	}
	return pts
}

// max returns the largest R over pts and the first offset reaching it.
func (o *objective) max(pts []float64) (float64, float64) {
	best, bestT := math.Inf(-1), 0.0
	for _, t := range pts {
		if r := o.at(t); r > best {
			best, bestT = r, t
		}
	}
	return best, bestT
}

// near reports whether got equals want within tol.At(want).
func near(got, want float64) bool { return math.Abs(got-want) <= tol.At(want) }

// misses tallies the paths whose bound a point of the objective beats,
// with the largest ratio and where it sits.
type misses struct {
	paths, missed int
	worst, worstT float64
	worstPath     afdx.PathID
}

// count tallies one path whose objective reaches best at offset t,
// and reports whether best beats the engine's bound.
func (m *misses) count(pid afdx.PathID, best, t, bound float64) bool {
	m.paths++
	if !tol.Gt(best, bound) {
		return false
	}
	m.missed++
	if r := best / bound; r > m.worst {
		m.worst, m.worstT, m.worstPath = r, t, pid
	}
	return true
}

func (m misses) String() string {
	s := fmt.Sprintf("the published candidates miss the maximum on %d of %d paths", m.missed, m.paths)
	if m.missed > 0 {
		s += fmt.Sprintf(", by up to %.2fx (%v at t = %.2f us)", m.worst, m.worstPath, m.worstT)
	}
	return s
}

// checkRun holds every path of res, an engine run under opts, to its
// objective: transcription on every path, and without grouping
// maximisation over points ∪ grid(gridN). With grouping a beaten
// bound only counts in the returned misses.
func checkRun(t *testing.T, label string, pg *afdx.PortGraph, nc *netcalc.Result, opts trajectory.Options, res *trajectory.Result, gridN int) misses {
	t.Helper()
	var ms misses
	for _, pid := range pg.Net.AllPaths() {
		det := res.Details[pid]
		o := newObjective(pg, nc, opts, pid)
		if r := o.at(det.CriticalT); !near(r, det.DelayUs) {
			t.Errorf("%s %v: transcription: R(%v) = %v, the engine's bound is %v", label, pid, det.CriticalT, r, det.DelayUs)
		}
		if !near(o.busy, det.BusyPeriodUs) {
			t.Errorf("%s %v: busy period %v, the engine's is %v", label, pid, o.busy, det.BusyPeriodUs)
		}
		best, bestT := o.max(append(o.points(), o.grid(gridN)...))
		if ms.count(pid, best, bestT, det.DelayUs) && !opts.Grouping {
			t.Errorf("%s %v: maximisation: R(%v) = %v beats the engine's bound %v (t = %v)", label, pid, bestT, best, det.DelayUs, det.CriticalT)
		}
	}
	return ms
}

// variant is one option set the sweeps run.
type variant struct {
	name string
	opts trajectory.Options
}

var variants = []variant{
	{"grouped", trajectory.DefaultOptions()},
	{"ungrouped", trajectory.Options{}},
	{"shared", trajectory.Options{Grouping: true, SharedTransition: true}},
}

// config is one configuration of a sweep corpus.
type config struct {
	name string
	pg   *afdx.PortGraph
}

// build makes net the sweep configuration called name.
func build(t *testing.T, name string, net *afdx.Network) config {
	t.Helper()
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return config{name, pg}
}

// generate is configgen's draw of vls VLs for seed.
func generate(t *testing.T, seed int64, vls int) config {
	t.Helper()
	spec := configgen.DefaultSpec(seed)
	spec.NumVLs = vls
	net, err := configgen.Generate(spec)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return build(t, fmt.Sprintf("seed-%d", seed), net)
}

// configgenCorpus is configgen's draw of 60 VLs for seeds lo..hi.
func configgenCorpus(t *testing.T, lo, hi int64) []config {
	var cs []config
	for seed := lo; seed <= hi; seed++ {
		cs = append(cs, generate(t, seed, 60))
	}
	return cs
}

// sweepGrid is the grid the sweeps add to each path's points.
const sweepGrid = 101

// sweep runs every configuration of corpus under each variant vs[i] at
// workers 1 and 0. The two runs must agree: the same Details with ==,
// or the same error. A successful run is held to the objective
// (checkRun), and its pathDigest feeds the variant's corpus digest,
// which must equal digests[i]. sweep returns the error of each
// configuration the engine rejects.
func sweep(t *testing.T, corpus []config, vs []variant, digests ...string) map[string]error {
	t.Helper()
	rejected := map[string]error{}
	hs := make([]hash.Hash64, len(vs))
	for i := range hs {
		hs[i] = fnv.New64a()
	}
	for _, c := range corpus {
		// The S_max source; it fails with the engine on an unstable port.
		nc, ncErr := netcalc.Analyze(c.pg, netcalc.DefaultOptions())
		for i, v := range vs {
			label := c.name + "/" + v.name
			var runs [2]*trajectory.Result
			var errs [2]error
			for w, workers := range []int{1, 0} {
				opts := v.opts
				opts.Parallel = workers
				runs[w], errs[w] = trajectory.AnalyzeCtx(context.Background(), c.pg, opts)
			}
			if errs[0] != nil || errs[1] != nil {
				if errs[0] == nil || errs[1] == nil || errs[0].Error() != errs[1].Error() {
					t.Fatalf("%s: workers 1 give %v, workers 0 give %v", label, errs[0], errs[1])
				}
				rejected[c.name] = errs[0]
				continue
			}
			if ncErr != nil {
				t.Fatalf("%s: %v", c.name, ncErr)
			}
			if !maps.Equal(runs[0].Details, runs[1].Details) || !maps.Equal(runs[0].PathDelays, runs[1].PathDelays) {
				t.Errorf("%s: workers 1 and 0 give different results", label)
			}
			fmt.Fprintf(hs[i], "%s %#x\n", c.name, trajectory.PathDigest(runs[0]))
			if ms := checkRun(t, label, c.pg, nc, v.opts, runs[0], sweepGrid); v.opts.Grouping {
				t.Logf("%s: %v", label, ms)
			}
		}
	}
	for i, v := range vs {
		if got := fmt.Sprintf("%#x", hs[i].Sum64()); got != digests[i] {
			t.Errorf("%s: corpus digest %s, want the pinned %s", v.name, got, digests[i])
		}
	}
	return rejected
}

// TestFlatMatchesReferenceFigure2 sweeps the paper's sample
// configuration and its slow-last-hop variant, whose interferers'
// frame times differ between the ports they share with a path, so the
// interference set must keep the max over those ports.
func TestFlatMatchesReferenceFigure2(t *testing.T) {
	corpus := []config{build(t, "fig2", afdx.Figure2Config()), build(t, "slowlasthop", trajectory.SlowLastHop())}
	sweep(t, corpus, variants, "0x54ad3cfa78ef1b6", "0x15dc7b3df040a4db", "0xccb5cbc03f7ef504")
}

// TestFlatMatchesReferenceMixedRates sweeps a generated configuration
// with a fast core, where some paths peak at a positive offset: there
// the grouping cap reads the input link's rate, which the evaluator
// takes from the port feeding the link.
func TestFlatMatchesReferenceMixedRates(t *testing.T) {
	corpus := []config{build(t, "seed3-120-fastcore", trajectory.FastCoreSeed(t, 3))}
	sweep(t, corpus, variants, "0x18235b80b7ecc913", "0x9951c98de7eb00af", "0x76654853c4b50633")
}

// TestFlatMatchesReferenceGoldenCorpus sweeps every lint-corpus
// configuration that loads and builds. Exactly one is rejected by the
// engine: unstable_port.json, with its AFDX001 error.
func TestFlatMatchesReferenceGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob("../lint/testdata/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("golden corpus missing: %v (%d files)", err, len(files))
	}
	var corpus []config
	for _, file := range files {
		net, err := afdx.LoadJSON(file, afdx.Strict)
		if err != nil {
			continue // invalid-on-purpose corpus entries
		}
		if pg, err := afdx.BuildPortGraph(net, afdx.Strict); err == nil {
			corpus = append(corpus, config{filepath.Base(file), pg})
		}
	}
	rejected := sweep(t, corpus, variants, "0x6e7db4d1e29fa96b", "0x6a5c92e64cf7847e", "0x6e7db4d1e29fa96b")
	if len(rejected) != 1 || !strings.Contains(fmt.Sprint(rejected["unstable_port.json"]), "AFDX001") {
		t.Errorf("rejected %v, want only unstable_port.json with AFDX001", rejected)
	}
}

// TestFlatMatchesReferenceConfiggen is the always-on generated sweep,
// small enough to stay fast under the race detector.
func TestFlatMatchesReferenceConfiggen(t *testing.T) {
	sweep(t, configgenCorpus(t, 1, 10), variants[:2], "0x1a88223b74677932", "0x351afe9271887b48")
}

// TestPublishedCapMissesItsMaximum pins, to 0.01 us, the defect of the
// published candidate set: on configgen seed 1 at 120 VLs the grouped
// bound of v0096/3 comes from its only candidate, t = 0, while the
// objective it maximises rises inside the 168 us busy period to
// 2,071.20 us at a cap's breakpoint, t = 156 us, and stays there to
// the busy period's end.
func TestPublishedCapMissesItsMaximum(t *testing.T) {
	c := generate(t, 1, 120)
	res, err := trajectory.Analyze(c.pg, trajectory.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nc, err := netcalc.Analyze(c.pg, netcalc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pid := afdx.PathID{VL: "v0096", PathIdx: 3}
	det := res.Details[pid]
	o := newObjective(c.pg, nc, trajectory.DefaultOptions(), pid)
	pts := o.points()
	slices.Sort(pts)
	best, _ := o.max(pts)
	first := pts[slices.IndexFunc(pts, func(t float64) bool { return near(o.at(t), best) })]
	if det.NumCandidates != 1 {
		t.Errorf("%v: %d candidates, want 1", pid, det.NumCandidates)
	}
	for _, v := range []struct {
		name      string
		got, want float64
	}{
		{"certified bound", det.DelayUs, 1428.48},
		{"critical offset", det.CriticalT, 0},
		{"busy period", det.BusyPeriodUs, 168},
		{"objective's maximum", best, 2071.20},
		{"first offset reaching it", first, 156},
	} {
		if math.Abs(v.got-v.want) > 0.005 {
			t.Errorf("%v: %s %.4f, want %.2f", pid, v.name, v.got, v.want)
		}
	}
}

// FuzzTrajectoryOracle holds the engine to the objective on configgen
// draws of 4 to 40 VLs, with or without a fast core: transcription on
// every path of every variant, maximisation without grouping.
func FuzzTrajectoryOracle(f *testing.F) {
	f.Add(int64(1), uint8(20), false)
	f.Add(int64(3), uint8(16), true)
	f.Add(int64(7), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, vls uint8, fast bool) {
		spec := configgen.DefaultSpec(seed)
		spec.NumVLs = 4 + int(vls)%37
		net, err := configgen.Generate(spec)
		if err != nil {
			t.Skip(err)
		}
		if fast {
			net = trajectory.FastCore(net)
		}
		c := build(t, "fuzz", net)
		nc, err := netcalc.Analyze(c.pg, netcalc.DefaultOptions())
		if err != nil {
			t.Skip(err)
		}
		for _, v := range variants {
			res, err := trajectory.Analyze(c.pg, v.opts)
			if err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			checkRun(t, v.name, c.pg, nc, v.opts, res, 201)
		}
	})
}
