package afdx_test

// Bit-reproducibility contract tests: both analysis engines must return
// bit-identical results across repeated runs and across worker-pool
// sizes (-parallel 1 vs -parallel N). The engines promise this by
// construction — float accumulation orders are fixed by sorted
// iteration, per-unit computations are pure, and worker results are
// merged in canonical order — and these tests pin the promise down,
// including under the race detector (see check.sh).

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"afdx"
)

// sameNCResults fails the test unless the two NC results are
// bit-identical: exact float equality (==, not a tolerance) on every
// per-port and per-path quantity.
func sameNCResults(t *testing.T, label string, a, b *afdx.NCResult) {
	t.Helper()
	if len(a.Ports) != len(b.Ports) {
		t.Fatalf("%s: port count %d vs %d", label, len(a.Ports), len(b.Ports))
	}
	for id, pa := range a.Ports {
		pb, ok := b.Ports[id]
		if !ok {
			t.Fatalf("%s: port %v missing", label, id)
		}
		if pa.DelayUs != pb.DelayUs || pa.BacklogBits != pb.BacklogBits || pa.Utilization != pb.Utilization {
			t.Errorf("%s: port %v differs: (%v,%v,%v) vs (%v,%v,%v)", label, id,
				pa.DelayUs, pa.BacklogBits, pa.Utilization, pb.DelayUs, pb.BacklogBits, pb.Utilization)
		}
		if len(pa.DelayByPriority) != len(pb.DelayByPriority) {
			t.Errorf("%s: port %v priority levels %d vs %d", label, id,
				len(pa.DelayByPriority), len(pb.DelayByPriority))
		}
		for lvl, d := range pa.DelayByPriority {
			if d != pb.DelayByPriority[lvl] {
				t.Errorf("%s: port %v level %d: %v vs %v", label, id, lvl, d, pb.DelayByPriority[lvl])
			}
		}
		if !slices.Equal(pa.Flows, pb.Flows) {
			t.Errorf("%s: port %v flow bounds: %v vs %v", label, id, pa.Flows, pb.Flows)
		}
	}
	if len(a.PathDelays) != len(b.PathDelays) {
		t.Fatalf("%s: path count %d vs %d", label, len(a.PathDelays), len(b.PathDelays))
	}
	for pid, d := range a.PathDelays {
		if d != b.PathDelays[pid] {
			t.Errorf("%s: path %v: %v vs %v", label, pid, d, b.PathDelays[pid])
		}
	}
}

// sameTrajectoryResults fails the test unless the two trajectory
// results are bit-identical, details included.
func sameTrajectoryResults(t *testing.T, label string, a, b *afdx.TrajectoryResult) {
	t.Helper()
	if len(a.PathDelays) != len(b.PathDelays) {
		t.Fatalf("%s: path count %d vs %d", label, len(a.PathDelays), len(b.PathDelays))
	}
	for pid, d := range a.PathDelays {
		if d != b.PathDelays[pid] {
			t.Errorf("%s: path %v: %v vs %v", label, pid, d, b.PathDelays[pid])
		}
	}
	for pid, da := range a.Details {
		if db := b.Details[pid]; da != db {
			t.Errorf("%s: detail %v: %+v vs %+v", label, pid, da, db)
		}
	}
}

// TestFigure2BitIdenticalAcrossRunsAndWorkers runs both engines on the
// paper's sample configuration five times at each worker count and
// demands bit-identical output against the sequential reference.
func TestFigure2BitIdenticalAcrossRunsAndWorkers(t *testing.T) {
	pg, err := afdx.BuildPortGraph(afdx.Figure2Config(), afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	ncOpts := afdx.DefaultNCOptions()
	trOpts := afdx.DefaultTrajectoryOptions()
	ncOpts.Parallel = 1
	trOpts.Parallel = 1
	ncRef, err := afdx.AnalyzeNC(pg, ncOpts)
	if err != nil {
		t.Fatal(err)
	}
	trRef, err := afdx.AnalyzeTrajectory(pg, trOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		ncOpts.Parallel = workers
		trOpts.Parallel = workers
		for run := 0; run < 5; run++ {
			nc, err := afdx.AnalyzeNC(pg, ncOpts)
			if err != nil {
				t.Fatal(err)
			}
			sameNCResults(t, "figure2 NC", ncRef, nc)
			tr, err := afdx.AnalyzeTrajectory(pg, trOpts)
			if err != nil {
				t.Fatal(err)
			}
			sameTrajectoryResults(t, "figure2 trajectory", trRef, tr)
		}
	}
}

// TestIndustrialNCBitIdenticalParallel checks the rank-parallel NC
// engine against the sequential one on the full seed-1 industrial
// configuration (cheap enough to run under the race detector).
func TestIndustrialNCBitIdenticalParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("industrial analysis is expensive")
	}
	net, err := afdx.Generate(afdx.DefaultGeneratorSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	opts := afdx.DefaultNCOptions()
	opts.Parallel = 1
	seq, err := afdx.AnalyzeNC(pg, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 8
	par, err := afdx.AnalyzeNC(pg, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameNCResults(t, "industrial NC", seq, par)
}

// TestSmallIndustrialTrajectoryBitIdenticalParallel checks the
// path-parallel trajectory engine on a scaled-down generated industrial
// configuration — small enough to stay fast under -race, where the full
// configuration would dominate the test suite (the full-size run lives
// in determinism_full_test.go behind the !race build tag).
func TestSmallIndustrialTrajectoryBitIdenticalParallel(t *testing.T) {
	spec := afdx.DefaultGeneratorSpec(1)
	spec.NumVLs = 120
	net, err := afdx.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	opts := afdx.DefaultTrajectoryOptions()
	opts.Parallel = 1
	seq, err := afdx.AnalyzeTrajectory(pg, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 8
	par, err := afdx.AnalyzeTrajectory(pg, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameTrajectoryResults(t, "small industrial trajectory", seq, par)
}

// renderTrajectoryLines renders a trajectory result into the canonical
// golden form: one line per path in PathID order, floats in hex (%x, an
// exact bit-level rendering), candidate and interferer counts appended.
func renderTrajectoryLines(res *afdx.TrajectoryResult) []string {
	ids := make([]afdx.PathID, 0, len(res.PathDelays))
	for id := range res.PathDelays {
		ids = append(ids, id)
	}
	afdx.SortPathIDs(ids)
	lines := make([]string, 0, len(ids))
	for _, id := range ids {
		d := res.Details[id]
		lines = append(lines, fmt.Sprintf("%v %x %x %x %d %d",
			id, d.DelayUs, d.BusyPeriodUs, d.CriticalT, d.NumCandidates, d.NumInterferers))
	}
	return lines
}

// TestTrajectoryGoldenPinnedValues pins the trajectory engine's output
// bit-for-bit against values captured from the pre-flattening (PR 6)
// engine: the paper's sample configuration per option variant
// literally, and the 120-VL generated configuration as an FNV-64a
// digest of its 783 rendered path lines per variant. Any change to a
// float accumulation order in the hot path — flat or reference — trips
// this test; it is the old-vs-new anchor of the PR 7 rework, on top of
// the engine-vs-engine differential tests in internal/trajectory.
func TestTrajectoryGoldenPinnedValues(t *testing.T) {
	fig2, err := afdx.BuildPortGraph(afdx.Figure2Config(), afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	// All grouped fig2 variants coincide on the sample configuration
	// (the serialization cap binds the same way and the transition terms
	// are symmetric); ungrouped differs on the four long paths.
	grouped := []string{
		"v1/0 0x1.fp+07 0x1.4p+05 0x0p+00 1 4",
		"v2/0 0x1.fp+07 0x1.4p+05 0x0p+00 1 4",
		"v3/0 0x1.fp+07 0x1.4p+05 0x0p+00 1 4",
		"v4/0 0x1.fp+07 0x1.4p+05 0x0p+00 1 4",
		"v5/0 0x1.cp+06 0x1.4p+05 0x0p+00 1 1",
	}
	ungrouped := []string{
		"v1/0 0x1.2p+08 0x1.4p+05 0x0p+00 1 4",
		"v2/0 0x1.2p+08 0x1.4p+05 0x0p+00 1 4",
		"v3/0 0x1.2p+08 0x1.4p+05 0x0p+00 1 4",
		"v4/0 0x1.2p+08 0x1.4p+05 0x0p+00 1 4",
		"v5/0 0x1.cp+06 0x1.4p+05 0x0p+00 1 1",
	}
	fig2Cases := []struct {
		name string
		opts afdx.TrajectoryOptions
		want []string
	}{
		{"grouped", afdx.TrajectoryOptions{Grouping: true}, grouped},
		{"ungrouped", afdx.TrajectoryOptions{}, ungrouped},
		{"shared", afdx.TrajectoryOptions{Grouping: true, SharedTransition: true}, grouped},
	}
	for _, tc := range fig2Cases {
		for _, workers := range []int{1, 8} {
			opts := tc.opts
			opts.Parallel = workers
			res, err := afdx.AnalyzeTrajectory(fig2, opts)
			if err != nil {
				t.Fatalf("fig2-%s: %v", tc.name, err)
			}
			lines := renderTrajectoryLines(res)
			if len(lines) != len(tc.want) {
				t.Fatalf("fig2-%s (workers=%d): %d paths, want %d", tc.name, workers, len(lines), len(tc.want))
			}
			for i := range lines {
				if lines[i] != tc.want[i] {
					t.Errorf("fig2-%s (workers=%d): line %d drifted from the pinned seed value:\n  got  %s\n  want %s",
						tc.name, workers, i, lines[i], tc.want[i])
				}
			}
		}
	}

	spec := afdx.DefaultGeneratorSpec(1)
	spec.NumVLs = 120
	net, err := afdx.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	smallCases := []struct {
		name string
		opts afdx.TrajectoryOptions
		want uint64
	}{
		{"small-industrial", afdx.TrajectoryOptions{Grouping: true}, 0xff3a4dc8346ecddf},
		{"small-industrial-ungrouped", afdx.TrajectoryOptions{}, 0xe6c74fa34c36a151},
	}
	for _, tc := range smallCases {
		for _, workers := range []int{1, 8} {
			opts := tc.opts
			opts.Parallel = workers
			res, err := afdx.AnalyzeTrajectory(pg, opts)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			h := fnv.New64a()
			for _, line := range renderTrajectoryLines(res) {
				h.Write([]byte(line))
				h.Write([]byte("\n"))
			}
			if got := h.Sum64(); got != tc.want {
				t.Errorf("%s (workers=%d): digest %#x drifted from the pinned seed digest %#x over %d paths",
					tc.name, workers, got, tc.want, len(res.PathDelays))
			}
		}
	}
}
