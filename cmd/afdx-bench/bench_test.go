package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/detcheck"
	"afdx/internal/obs"
)

// benchSpec is the part of BENCHMARK.json the tests hold the program to.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// toyScale runs every workload on configurations small enough for the
// smoke tests: Figure 2 and a 20-VL configgen draw.
func toyScale() scale {
	return scale{
		certify: func() ([]*afdx.Network, error) {
			net, err := regional(1, 20)
			if err != nil {
				return nil, err
			}
			return []*afdx.Network{afdx.Figure2Config(), net}, nil
		},
		whatif: func() (*afdx.Network, error) { return regional(1, 20) },
	}
}

// regional draws an industrial-statistics configuration with fewer VLs.
func regional(seed int64, vls int) (*afdx.Network, error) {
	spec := configgen.DefaultSpec(seed)
	spec.NumVLs = vls
	return configgen.Generate(spec)
}

// toyOptions runs a workload for five ops on toy configurations.
func toyOptions(t *testing.T, name string, traced bool) options {
	return options{
		workload:  name,
		seed:      1,
		seconds:   time.Minute,
		maxOps:    5,
		traced:    traced,
		traceFile: filepath.Join(t.TempDir(), "trace.json"),
		scale:     toyScale(),
		progress:  io.Discard,
	}
}

// TestWorkloadsEmitEveryMetric runs every workload of BENCHMARK.json at
// toy scale, untraced and traced, and requires each run to pass the
// correctness gate and to print exactly the metrics BENCHMARK.json
// names, with their units.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			o := toyOptions(t, wl.Name, traced)
			res, err := measure(context.Background(), o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != o.maxOps {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", wl.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if traced {
				if fi, err := os.Stat(o.traceFile); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no Chrome trace written (%v)", wl.Name, err)
				}
			}
		}
	}
}

// TestCorruptedAnchorFailsGate moves one certify-cold anchor bound by
// one ulp: the op on that configuration must fail.
func TestCorruptedAnchorFailsGate(t *testing.T) {
	ctx := context.Background()
	c := &certify{scale: toyScale(), seed: 1}
	if _, err := c.setup(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(c.cfgs); i++ {
		if r := c.op(ctx, false); r.failed {
			t.Fatalf("op %d failed against an intact anchor", i)
		}
	}
	b := &c.anchors[0][0]
	b.NCUs = math.Nextafter(b.NCUs, math.Inf(1))
	failed := 0
	for i := 0; i < len(c.cfgs); i++ {
		if c.op(ctx, false).failed {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("%d ops failed over one cycle with one corrupted anchor, want 1", failed)
	}
}

// TestCorruptedServedAnswerFailsReplay changes one recorded served bound:
// the cold replay must report it.
func TestCorruptedServedAnswerFailsReplay(t *testing.T) {
	ctx := context.Background()
	s := newPeeks(toyScale(), 1, "")
	defer s.close()
	if _, err := s.setup(ctx); err != nil {
		t.Fatal(err)
	}
	if r := s.op(ctx, false); r.failed {
		t.Fatal("op failed")
	}
	p := &s.script.Steps[0].Response.Paths[0]
	p.TrajectoryUs = math.Nextafter(p.TrajectoryUs, math.Inf(-1))
	_, failures, err := s.finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 {
		t.Fatalf("cold replay found %d failures, want 1", failures)
	}
}

// TestPartitionCountsParallelSpansOnce checks the layer split on a
// synthetic trace: two overlapping per-path spans under one engine span
// count once, as wall time, and the shares add up to the root.
func TestPartitionCountsParallelSpansOnce(t *testing.T) {
	ev := func(name, path string, ts, dur int64) obs.TraceEvent {
		return obs.TraceEvent{Name: name, Ts: ts, Dur: dur, Args: map[string]string{"path": path}}
	}
	got := partition([]obs.TraceEvent{
		ev("bench.op", "bench.op", 0, 100),
		ev("lint", "bench.op/lint", 0, 10),
		ev("trajectory", "bench.op/trajectory", 20, 60),
		ev("path:v1/0", "bench.op/trajectory/path:v1/0", 30, 30),
		ev("path:v2/0", "bench.op/trajectory/path:v2/0", 40, 30),
		ev("netcalc", "bench.op/trajectory/netcalc", 72, 4),
	})
	want := map[string]int64{"bench.op": 30, "lint": 10, "trajectory": 56, "netcalc": 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("partition = %v, want %v", got, want)
	}
}

// TestRepositoryClean holds the benchmark to the repository's
// determinism contract (afdx-vet): as a cmd/ package it is a tool, so
// the fan-out counter rule applies.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the package and its dependencies from source")
	}
	root, err := detcheck.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := detcheck.Run(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packages == 0 {
		t.Fatal("the suite analysed zero packages")
	}
	for _, f := range rep.Findings {
		if !f.Suppressed {
			t.Errorf("active finding: %s", f.String())
		}
	}
}
