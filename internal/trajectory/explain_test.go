package trajectory

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/netcalc"
	"afdx/internal/obs"
)

// checkExplanation holds one explanation to the identities that make
// it a read-out of the engine run: its bound and critical offset are
// the path's Details entry, its parts re-sum to the bound with ==, in
// the engine's order and association, and its groups and members come
// in the order the engine sums them.
func checkExplanation(t *testing.T, label string, pg *afdx.PortGraph, ex *Explanation, det PathDetail, grouping bool) {
	t.Helper()
	if ex.DelayUs != det.DelayUs || ex.CriticalT != det.CriticalT {
		t.Errorf("%s: explanation (%v, t=%v) != analysis (%v, t=%v)", label, ex.DelayUs, ex.CriticalT, det.DelayUs, det.CriticalT)
	}
	if got := ex.InterferenceUs + ex.TransitionUs + ex.LatencyUs - ex.CriticalT; got != ex.DelayUs {
		t.Errorf("%s: I + T + L - t = %v, bound %v", label, got, ex.DelayUs)
	}
	sum, members := 0.0, 0
	var prevKey string
	for gi, g := range ex.Interference {
		full, firsts := 0.0, 0.0
		for mi, m := range g.Members {
			if grouping {
				full += float64(m.Frames-1) * m.CUs
				firsts += m.CUs
			} else {
				full += float64(m.Frames) * m.CUs
			}
			if mi > 0 && g.Members[mi-1].VL >= m.VL {
				t.Errorf("%s: group %d members out of VL order: %s before %s", label, gi, g.Members[mi-1].VL, m.VL)
			}
		}
		if full != g.FullUs || firsts != g.FirstUs {
			t.Errorf("%s: group %d: members re-sum to full %v first %v, group says %v / %v", label, gi, full, firsts, g.FullUs, g.FirstUs)
		}
		want := g.FullUs + g.FirstUs
		if g.Capped {
			want = g.FullUs + g.CapUs
			if !(g.CapUs < g.FirstUs) {
				t.Errorf("%s: group %d capped at %v above its first frames %v", label, gi, g.CapUs, g.FirstUs)
			}
		}
		if g.Us != want {
			t.Errorf("%s: group %d summand %v, want %v", label, gi, g.Us, want)
		}
		key := g.Port.String() + "\x00" + g.InputLink
		if grouping {
			if gi > 0 && prevKey >= key {
				t.Errorf("%s: group %d (%v via %q) out of engine order", label, gi, g.Port, g.InputLink)
			}
		} else if len(g.Members) != 1 || g.Capped || g.CapUs != 0 || g.FirstUs != 0 ||
			(gi > 0 && ex.Interference[gi-1].Members[0].VL >= g.Members[0].VL) {
			t.Errorf("%s: ungrouped term %d is not one flow in VL order: %+v", label, gi, g)
		}
		prevKey = key
		sum += g.Us
		members += len(g.Members)
	}
	if sum != ex.InterferenceUs {
		t.Errorf("%s: group terms sum to %v, InterferenceUs %v", label, sum, ex.InterferenceUs)
	}
	if members != det.NumInterferers {
		t.Errorf("%s: %d members, analysis saw %d interferers", label, members, det.NumInterferers)
	}
	tsum := 0.0
	for _, tr := range ex.Transitions {
		tsum += tr.CUs
	}
	if tsum != ex.TransitionUs {
		t.Errorf("%s: transition terms sum to %v, TransitionUs %v", label, tsum, ex.TransitionUs)
	}
	lat := 0.0
	for _, h := range pg.PathPorts(ex.Path) {
		lat += pg.Ports[h].LatencyUs
	}
	if lat != ex.LatencyUs {
		t.Errorf("%s: latencies sum to %v, LatencyUs %v", label, lat, ex.LatencyUs)
	}
}

// explainAll explains every path of pg under each variant with one
// analyzer per variant and checks each explanation against the path's
// Details from full runs at workers 1 and N. A configuration the engine
// rejects must be rejected by the explanation too.
func explainAll(t *testing.T, label string, pg *afdx.PortGraph, variants []struct {
	name string
	opts Options
}) {
	t.Helper()
	ctx := context.Background()
	for _, v := range variants {
		name := label + "/" + v.name
		var runs []*Result
		var runErr error
		for _, workers := range []int{1, 0} {
			opts := v.opts
			opts.Parallel = workers
			res, err := AnalyzeCtx(ctx, pg, opts)
			runs, runErr = append(runs, res), err
		}
		a, err := newAnalyzer(ctx, pg, v.opts, nil)
		if err == nil {
			for _, pid := range pg.Net.AllPaths() {
				ex := &Explanation{Path: pid}
				if _, err = a.analyzePath(ctx, pid, ex); err != nil {
					break
				}
				for i, res := range runs {
					if res != nil {
						checkExplanation(t, fmt.Sprintf("%s %v (run %d)", name, pid, i), pg, ex, res.Details[pid], v.opts.Grouping)
					}
				}
			}
		}
		if (err == nil) != (runErr == nil) {
			t.Fatalf("%s: explanation err %v vs analysis err %v", name, err, runErr)
		}
	}
}

// TestExplainIdentityFigure2 sweeps the paper's sample configuration
// under every engine variant, and the slow-last-hop variant whose
// interferers' frame times differ between shared ports.
func TestExplainIdentityFigure2(t *testing.T) {
	for _, c := range []struct {
		label string
		net   *afdx.Network
	}{{"fig2", afdx.Figure2Config()}, {"slowlasthop", slowLastHop()}} {
		pg, err := afdx.BuildPortGraph(c.net, afdx.Strict)
		if err != nil {
			t.Fatal(err)
		}
		explainAll(t, c.label, pg, engineVariants)
	}
}

// TestExplainIdentityGoldenCorpus sweeps every lint-corpus
// configuration that builds.
func TestExplainIdentityGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob("../lint/testdata/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("golden corpus missing: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		net, err := afdx.LoadJSON(file, afdx.Strict)
		if err != nil {
			continue
		}
		pg, err := afdx.BuildPortGraph(net, afdx.Strict)
		if err != nil {
			continue
		}
		explainAll(t, filepath.Base(file), pg, engineVariants)
	}
}

// explainConfiggenSeeds is the shared body of the generated sweeps (the
// always-on slice here, seeds 11–100 in explain_full_test.go).
func explainConfiggenSeeds(t *testing.T, lo, hi int64) {
	for seed := lo; seed <= hi; seed++ {
		spec := configgen.DefaultSpec(seed)
		spec.NumVLs = 60
		net, err := configgen.Generate(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pg, err := afdx.BuildPortGraph(net, afdx.Strict)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		explainAll(t, fmt.Sprintf("seed-%d", seed), pg, engineVariants[:2])
	}
}

func TestExplainIdentityConfiggen(t *testing.T) {
	explainConfiggenSeeds(t, 1, 10)
}

// TestExplainRenderGolden pins the rendered explanations byte for byte:
// Figure 2 v1/0, whose {v3, v4} group has its 80 us of first frames
// capped to 40 us, and the lint corpus's clean configuration, whose two
// VLs share a source port and so are serialized there although no
// upstream link serializes them (ROADMAP item 1).
func TestExplainRenderGolden(t *testing.T) {
	clean, err := afdx.LoadJSON("../lint/testdata/clean.json", afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		net  *afdx.Network
		want string
	}{
		{"fig2", afdx.Figure2Config(), `trajectory bound for v1/0: 248.00 us (critical offset t = 0.00 us)
interference (each flow once, at its first shared port): 120.00 us
  at S1->S3     via e2      : 40.00 us = full 0.00 + first 40.00 (cap 40.00)
    v2       1 frame(s) x 40.00 us (A=0.00)
  at S3->e6     via S2      : 40.00 us = full 0.00 + first 80.00 capped to 40.00
    v3       1 frame(s) x 40.00 us (A=41.12)
    v4       1 frame(s) x 40.00 us (A=41.12)
  at e1->S1     via (source): 40.00 us = full 0.00 + first 40.00
    v1       1 frame(s) x 40.00 us (A=0.00)
transition terms (busy-period bridging packets): 80.00 us
  at S1->S3    : 40.00 us
  at S3->e6    : 40.00 us
technological latencies: 48.00 us
bound = 120.00 + 80.00 + 48.00 - 0.00 (t) = 248.00 us
`},
		{"clean", clean, `trajectory bound for v1/0: 258.88 us (critical offset t = 0.00 us)
interference (each flow once, at its first shared port): 121.44 us
  at e1->S1     via (source): 121.44 us = full 0.00 + first 242.88 capped to 121.44
    v1       1 frame(s) x 121.44 us (A=0.00)
    v2       1 frame(s) x 121.44 us (A=0.00)
transition terms (busy-period bridging packets): 121.44 us
  at S1->e2    : 121.44 us
technological latencies: 16.00 us
bound = 121.44 + 121.44 + 16.00 - 0.00 (t) = 258.88 us
`},
	} {
		pg, err := afdx.BuildPortGraph(c.net, afdx.Strict)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Explain(pg, afdx.PathID{VL: "v1", PathIdx: 0}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ex.Render(&buf); err != nil {
			t.Fatal(err)
		}
		got, want := buf.Bytes(), []byte(c.want)
		if len(got) != len(want) {
			t.Fatalf("%s: rendered %d bytes, want %d:\n%s", c.name, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: byte %d is %q, want %q:\n%s", c.name, i, got[i], want[i], got)
			}
		}
	}
}

// TestExplainCountsLikeOnePathAnalysis pins that an explanation does
// the work of a one-path analysis and nothing more: under a registry,
// its Deterministic snapshot equals that of newAnalyzer + analyzePath
// on the same path, with no second look-up of the interference set;
// handed a default-options NC result, it runs no NC analysis at all.
// Its spans nest under the caller's context.
func TestExplainCountsLikeOnePathAnalysis(t *testing.T) {
	pg := figure2Graph(t)
	pid := afdx.PathID{VL: "v1", PathIdx: 0}
	snapshot := func(run func(ctx context.Context) error) *obs.Snapshot {
		t.Helper()
		reg := obs.NewRegistry()
		if err := run(obs.WithRegistry(context.Background(), reg)); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Deterministic()
	}
	for _, v := range engineVariants {
		onePath := snapshot(func(ctx context.Context) error {
			a, err := newAnalyzer(ctx, pg, v.opts, nil)
			if err != nil {
				return err
			}
			_, err = a.analyzePath(ctx, pid, nil)
			return err
		})
		explained := snapshot(func(ctx context.Context) error {
			_, err := ExplainCtx(ctx, pg, pid, v.opts, nil)
			return err
		})
		if !reflect.DeepEqual(explained, onePath) {
			t.Errorf("%s: explanation snapshot differs from a one-path analysis:\nexplain:  %+v\none path: %+v", v.name, explained, onePath)
		}
		if v.name == "grouped" {
			met := int64(0)
			for _, h := range onePath.Histograms {
				if h.Name == "trajectory.interference_set_size" {
					met = h.Sum
				}
			}
			if met != 4 {
				t.Errorf("%s: one-path analysis met %d interferers, want 4", v.name, met)
			}
		}
	}

	nc, err := netcalc.Analyze(pg, netcalc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	shared := snapshot(func(ctx context.Context) error {
		_, err := ExplainCtx(ctx, pg, pid, DefaultOptions(), nc)
		return err
	})
	if n := shared.Counter("netcalc.ports_analyzed"); n != 0 {
		t.Errorf("explanation on the caller's NC result analysed %d NC ports, want 0", n)
	}
	if n := shared.Counter("trajectory.paths_analyzed"); n != 1 {
		t.Errorf("explanation analysed %d paths, want 1", n)
	}

	// On the caller's NC result the explanation is one span under the
	// caller's; with a private prefix run, that run nests inside it.
	for _, c := range []struct {
		nc   *netcalc.Result
		want string
	}{{nc, "cmd/trajectory"}, {nil, "cmd/trajectory/netcalc"}} {
		tr := obs.NewTracer()
		ctx, root := obs.StartSpan(obs.WithTracer(context.Background(), tr), "cmd")
		if _, err := ExplainCtx(ctx, pg, pid, DefaultOptions(), c.nc); err != nil {
			t.Fatal(err)
		}
		root.End()
		shape := tr.Shape()
		if !slices.Contains(shape, c.want) {
			t.Errorf("spans %v miss %q", shape, c.want)
		}
		for _, p := range shape {
			if p != "cmd" && !strings.HasPrefix(p, "cmd/trajectory") {
				t.Errorf("span %q is not under the caller's cmd/trajectory", p)
			}
		}
	}
}
