package exact

import (
	"context"
	"math"
	"reflect"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/netcalc"
	"afdx/internal/obs"
	"afdx/internal/trajectory"
)

func figure2Graph(t *testing.T) *afdx.PortGraph {
	t.Helper()
	pg, err := afdx.BuildPortGraph(afdx.Figure2Config(), afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

func TestSearchSingleFlowIsTight(t *testing.T) {
	// v5's path carries no competitor: any offset produces the exact
	// worst case of 112 us, matching the trajectory bound exactly.
	pg := figure2Graph(t)
	opts := DefaultOptions()
	opts.GridUs = 1000
	opts.Refine = 0
	res, err := Search(pg, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Delays[afdx.PathID{VL: "v5", PathIdx: 0}]
	if math.Abs(d-112) > 1e-6 {
		t.Errorf("exact worst case for v5 = %g, want 112", d)
	}
}

// TestSearchTracesOneSpan pins a traced search to one span however many
// simulator runs it makes: the evaluations are counted in the
// registry, not traced.
func TestSearchTracesOneSpan(t *testing.T) {
	pg := figure2Graph(t)
	opts := DefaultOptions()
	opts.GridUs = 2000
	opts.Refine = 1
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	ctx := obs.WithTracer(obs.WithRegistry(context.Background(), reg), tr)
	res, err := SearchCtx(ctx, pg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Shape(), []string{"exact"}; !reflect.DeepEqual(got, want) {
		t.Errorf("span shape = %v, want %v", got, want)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("exact.evaluations"); got <= 0 || got != int64(res.Evaluations) {
		t.Errorf("exact.evaluations = %d, want Result.Evaluations = %d > 0", got, res.Evaluations)
	}
	if got := snap.Counter("sim.events_processed"); got <= 0 {
		t.Errorf("sim.events_processed = %d, want > 0", got)
	}
}

func TestSearchSandwichedByAnalyses(t *testing.T) {
	pg := figure2Graph(t)
	nc, err := netcalc.Analyze(pg, netcalc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	trU, err := trajectory.Analyze(pg, trajectory.Options{Grouping: false})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.GridUs = 500
	opts.Refine = 12
	res, err := Search(pg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for pid, d := range res.Delays {
		if d > nc.PathDelays[pid]+1e-6 {
			t.Errorf("path %v: found %g above the NC bound %g", pid, d, nc.PathDelays[pid])
		}
		if d > trU.PathDelays[pid]+1e-6 {
			t.Errorf("path %v: found %g above the ungrouped trajectory bound %g",
				pid, d, trU.PathDelays[pid])
		}
	}
	if res.Evaluations <= 0 {
		t.Error("search should report its evaluation count")
	}
}

func TestSearchFindsDeepWorstCase(t *testing.T) {
	// The refinement should reach at least the staggered 287 us scenario
	// for v1 (the grouped-trajectory optimism witness), well above what
	// the synchronized burst achieves.
	pg := figure2Graph(t)
	opts := DefaultOptions()
	opts.GridUs = 500
	opts.Refine = 12
	res, err := Search(pg, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Delays[afdx.PathID{VL: "v1", PathIdx: 0}]
	if d < 280 {
		t.Errorf("search reached only %g us for v1, want >= 280 (achievable: 287)", d)
	}
	if d > 288+1e-6 {
		t.Errorf("search found %g us for v1, above the sound 288 us bound", d)
	}
	if off := res.Offsets[afdx.PathID{VL: "v1", PathIdx: 0}]; len(off) != 5 {
		t.Errorf("witness offsets should cover all 5 VLs, got %v", off)
	}
}

func TestSearchComboGuard(t *testing.T) {
	pg := figure2Graph(t)
	opts := DefaultOptions()
	opts.GridUs = 1 // 4000^4 combinations
	if _, err := Search(pg, opts); err == nil {
		t.Fatal("expected MaxCombos guard to trip")
	}
}

func TestSearchEmptyNetwork(t *testing.T) {
	n := &afdx.Network{
		Name:       "empty",
		Params:     afdx.DefaultParams(),
		EndSystems: []string{"a"},
	}
	// No VLs: BuildPortGraph succeeds but Search must refuse.
	pg, err := afdx.BuildPortGraph(n, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Search(pg, DefaultOptions()); err == nil {
		t.Fatal("expected error for empty VL set")
	}
}

func TestWrap(t *testing.T) {
	if got := wrap(4500, 4000); got != 500 {
		t.Errorf("wrap(4500,4000) = %g, want 500", got)
	}
	if got := wrap(-500, 4000); got != 3500 {
		t.Errorf("wrap(-500,4000) = %g, want 3500", got)
	}
}

func TestResultMaxDelayUs(t *testing.T) {
	pg := figure2Graph(t)
	opts := DefaultOptions()
	opts.GridUs = 2000
	opts.Refine = 0
	res, err := Search(pg, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := res.MaxDelayUs()
	if m <= 0 {
		t.Fatalf("global max = %g, want > 0", m)
	}
	for _, d := range res.Delays {
		if d > m {
			t.Errorf("per-path delay %g exceeds the reported max %g", d, m)
		}
	}
}
