package sim

import (
	"math"
	"strings"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/netcalc"
	"afdx/internal/trajectory"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

func figure2Graph(t *testing.T) *afdx.PortGraph {
	t.Helper()
	pg, err := afdx.BuildPortGraph(afdx.Figure2Config(), afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

func TestSingleFrameUncontendedDelay(t *testing.T) {
	// v5 alone on its path with all other VLs parked far away: the delay
	// is exactly 2*(L + C) = 2*(16+40) = 112 us.
	pg := figure2Graph(t)
	cfg := Config{
		DurationUs: 4000,
		OffsetsUs: map[string]float64{
			"v1": 2000, "v2": 2000, "v3": 2000, "v4": 2000, "v5": 0,
		},
	}
	res, err := Run(pg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Paths[afdx.PathID{VL: "v5", PathIdx: 0}]
	if st.Frames != 1 {
		t.Fatalf("v5 frames = %d, want 1", st.Frames)
	}
	if !almostEq(st.MaxDelayUs, 112) {
		t.Errorf("uncontended v5 delay = %g, want 112", st.MaxDelayUs)
	}
}

func TestSynchronizedBurstQueueing(t *testing.T) {
	// v1..v4 all emitted at t=0: at S3->e6 the four frames serialize, so
	// the worst of them waits for three predecessors.
	pg := figure2Graph(t)
	cfg := Config{
		DurationUs: 4000,
		OffsetsUs:  map[string]float64{"v1": 0, "v2": 0, "v3": 0, "v4": 0, "v5": 2000},
	}
	res, err := Run(pg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, vl := range []string{"v1", "v2", "v3", "v4"} {
		d := res.Paths[afdx.PathID{VL: vl, PathIdx: 0}].MaxDelayUs
		if d > worst {
			worst = d
		}
	}
	// Minimum conceivable: 3 hops of (16+40) = 168; with three frames
	// queued ahead at the last hop: 168 + 3*40 = 288... but upstream
	// waits overlap, so the observed worst is between 208 and 288.
	if worst < 208 || worst > 288 {
		t.Errorf("synchronized burst worst delay = %g, want within [208, 288]", worst)
	}
}

// TestGroupedTrajectoryOptimismScenario reproduces, in simulation, the
// corner case documented in DESIGN.md: a feasible arrival pattern on the
// Figure 2 configuration in which v1's end-to-end delay (287 us) exceeds
// the grouped trajectory bound (248 us) while staying below the
// ungrouped bound (288 us). This is the known optimism of the published
// enhanced trajectory method, only discovered years later.
func TestGroupedTrajectoryOptimismScenario(t *testing.T) {
	pg := figure2Graph(t)
	// v2 one nanosecond ahead of v1 on the shared S1->S3 link, v3/v4
	// back-to-back on S2->S3, everything completing just before v1's
	// arrival at S3: v1 waits behind v3's tail, v2 and v4.
	cfg := Config{
		DurationUs: 4000,
		OffsetsUs:  map[string]float64{"v1": 0.002, "v2": 0.001, "v3": 0, "v4": 0, "v5": 2000},
	}
	res, err := Run(pg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Paths[afdx.PathID{VL: "v1", PathIdx: 0}].MaxDelayUs
	if !almostEq(d, 287.998) {
		t.Fatalf("staggered scenario delay = %g, want 287.998", d)
	}
	grouped, err := trajectory.Analyze(pg, trajectory.Options{Grouping: true})
	if err != nil {
		t.Fatal(err)
	}
	ungrouped, err := trajectory.Analyze(pg, trajectory.Options{Grouping: false})
	if err != nil {
		t.Fatal(err)
	}
	pid := afdx.PathID{VL: "v1", PathIdx: 0}
	if d <= grouped.PathDelays[pid] {
		t.Errorf("scenario (%g) should exceed the grouped trajectory bound (%g): the documented optimism",
			d, grouped.PathDelays[pid])
	}
	if d > ungrouped.PathDelays[pid]+1e-9 {
		t.Errorf("scenario (%g) must not exceed the ungrouped trajectory bound (%g)",
			d, ungrouped.PathDelays[pid])
	}
}

func TestBoundsDominateSimulation(t *testing.T) {
	// Across many random offset seeds, no observed delay may exceed the
	// NC bound or the ungrouped trajectory bound (sound analyses).
	pg := figure2Graph(t)
	nc, err := netcalc.Analyze(pg, netcalc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trajectory.Analyze(pg, trajectory.Options{Grouping: false})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 25; seed++ {
		cfg := DefaultConfig(seed)
		cfg.DurationUs = 64 * 1000
		res, err := Run(pg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for pid, st := range res.Paths {
			if st.MaxDelayUs > nc.PathDelays[pid]+1e-6 {
				t.Errorf("seed %d path %v: simulated %g exceeds NC bound %g",
					seed, pid, st.MaxDelayUs, nc.PathDelays[pid])
			}
			if st.MaxDelayUs > tr.PathDelays[pid]+1e-6 {
				t.Errorf("seed %d path %v: simulated %g exceeds ungrouped trajectory bound %g",
					seed, pid, st.MaxDelayUs, tr.PathDelays[pid])
			}
		}
	}
}

func TestBAGRespectedByGreedySources(t *testing.T) {
	pg := figure2Graph(t)
	cfg := DefaultConfig(1)
	cfg.DurationUs = 40_000 // 10 BAGs of 4 ms
	res, err := Run(pg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 5 VLs * 10 frames each.
	if res.FramesEmitted != 50 {
		t.Errorf("frames emitted = %d, want 50", res.FramesEmitted)
	}
	delivered := 0
	for _, st := range res.Paths {
		delivered += st.Frames
	}
	if delivered != 50 {
		t.Errorf("frames delivered = %d, want 50 (unicast VLs, no loss)", delivered)
	}
}

func TestMulticastDeliversToAllDestinations(t *testing.T) {
	pg, err := afdx.BuildPortGraph(afdx.Figure1Config(), afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(3)
	cfg.DurationUs = 4 * 1000
	res, err := Run(pg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// v6 (BAG 4 ms) emits one frame in 4 ms and has two destinations.
	for pi := 0; pi < 2; pi++ {
		st := res.Paths[afdx.PathID{VL: "v6", PathIdx: pi}]
		if st.Frames != 1 {
			t.Errorf("v6 path %d: %d frames delivered, want 1", pi, st.Frames)
		}
	}
}

func TestRandomSizesStayWithinContract(t *testing.T) {
	pg := figure2Graph(t)
	n := pg.Net
	n.VLs[0].SMinBytes = 100 // widen the range for v1
	cfg := DefaultConfig(5)
	cfg.RandomSizes = true
	cfg.DurationUs = 128 * 1000
	res, err := Run(pg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Paths[afdx.PathID{VL: "v1", PathIdx: 0}]
	if st.Frames == 0 {
		t.Fatal("no frames delivered")
	}
	if st.MinDelayUs < 2*16+3*8 { // three hops of the smallest frame
		t.Errorf("min delay %g below physical floor", st.MinDelayUs)
	}
	if st.MinDelayUs >= st.MaxDelayUs {
		t.Errorf("random sizes should produce delay variation: min %g max %g",
			st.MinDelayUs, st.MaxDelayUs)
	}
}

func TestPolicingDropsNonConformantTraffic(t *testing.T) {
	// Shrink v1's BAG in the model used for policing, then simulate a
	// source that emits at twice the declared rate by giving the policer
	// a contract twice as strict as the emission pattern.
	n := afdx.Figure2Config()
	pg, err := afdx.BuildPortGraph(n, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate with policing and a deliberately tiny slack: greedy
	// sources are exactly BAG-spaced so everything conforms.
	cfg := DefaultConfig(1)
	cfg.DurationUs = 40_000
	cfg.Policing = true
	cfg.PolicingSlackUs = 0
	res, err := Run(pg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesDropped != 0 {
		t.Errorf("conformant traffic dropped %d frames", res.FramesDropped)
	}
	// A policer enforcing half the declared rate (equivalently, a source
	// emitting at twice its contract) must drop roughly half the frames.
	cfg2 := cfg
	cfg2.Seed = 2
	cfg2.PolicingRateFactor = 0.5
	res2, err := Run(pg, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.FramesDropped == 0 {
		t.Error("halved policing rate should drop frames from exact-BAG sources")
	}
	frac := float64(res2.FramesDropped) / float64(res2.FramesEmitted)
	if frac < 0.25 || frac > 0.6 {
		t.Errorf("dropped fraction = %g, want roughly one half", frac)
	}
	delivered := 0
	for _, st := range res2.Paths {
		delivered += st.Frames
	}
	if delivered+res2.FramesDropped != res2.FramesEmitted {
		t.Errorf("conservation violated: %d delivered + %d dropped != %d emitted",
			delivered, res2.FramesDropped, res2.FramesEmitted)
	}
}

func TestPolicingDropsBurst(t *testing.T) {
	// Two VLs from the same ES declared with a large BAG but emitted
	// simultaneously exercise the bucket: with zero initial... the bucket
	// starts full, so the first frame passes and the second frame of the
	// same VL (one BAG later) also passes. To force a drop, declare a
	// BAG larger than the emission interval is impossible with greedy
	// sources; instead use jittered sources whose accumulated jitter
	// exceeds the slack window. Statistically, with zero slack and
	// jitter, gaps only grow, so greedy remains conformant: assert that.
	pg := figure2Graph(t)
	cfg := DefaultConfig(7)
	cfg.Model = PeriodicJitterSources
	cfg.JitterUs = 500
	cfg.Policing = true
	cfg.PolicingSlackUs = 0
	cfg.DurationUs = 64_000
	res, err := Run(pg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesDropped != 0 {
		t.Errorf("jitter that only widens gaps must conform, dropped %d", res.FramesDropped)
	}
}

func TestRunRejectsBadDuration(t *testing.T) {
	if _, err := Run(figure2Graph(t), Config{DurationUs: 0}); err == nil {
		t.Error("expected error for zero duration")
	}
	// A horizon that is NaN, infinite or beyond int64 nanoseconds used to
	// simulate one frame per path and succeed.
	for _, d := range []float64{math.NaN(), math.Inf(1), 1e300} {
		_, err := Run(figure2Graph(t), Config{DurationUs: d})
		if err == nil || !strings.Contains(err.Error(), "DurationUs") {
			t.Errorf("DurationUs %g: got %v, want an error naming DurationUs", d, err)
		}
	}
}

// TestRunRejectsInvalidJitterAndPolicing: negative or non-finite jitter
// and policer settings used to run silently (NaN or a negative rate
// factor dropped nearly every frame; negative jitter was ignored).
func TestRunRejectsInvalidJitterAndPolicing(t *testing.T) {
	pg := figure2Graph(t)
	for _, tc := range []struct {
		field string
		set   func(*Config, float64)
	}{
		{"JitterUs", func(c *Config, v float64) { c.Model, c.JitterUs = PeriodicJitterSources, v }},
		{"PolicingSlackUs", func(c *Config, v float64) { c.Policing, c.PolicingSlackUs = true, v }},
		{"PolicingRateFactor", func(c *Config, v float64) { c.Policing, c.PolicingRateFactor = true, v }},
	} {
		for _, v := range []float64{-1, math.NaN(), math.Inf(1)} {
			cfg := DefaultConfig(1)
			cfg.DurationUs = 16_000
			tc.set(&cfg, v)
			_, err := Run(pg, cfg)
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s %g: got %v, want an error naming %s", tc.field, v, err, tc.field)
			}
		}
	}
}

func TestMeanDelayAccumulation(t *testing.T) {
	pg := figure2Graph(t)
	cfg := DefaultConfig(1)
	cfg.DurationUs = 40_000
	res, err := Run(pg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for pid, st := range res.Paths {
		mean := st.MeanDelayUs()
		if mean < st.MinDelayUs-1e-9 || mean > st.MaxDelayUs+1e-9 {
			t.Errorf("path %v: mean %g outside [min %g, max %g]", pid, mean, st.MinDelayUs, st.MaxDelayUs)
		}
	}
	if res.MaxDelayUs() <= 0 {
		t.Error("global max delay should be positive")
	}
}

func TestPriorityOvertakesQueuedFrames(t *testing.T) {
	// Two low-priority VLs and one high-priority VL converge on one
	// port. Emitted together, the high VL must overtake the queued low
	// frames even when it becomes ready last.
	n := &afdx.Network{
		Name:       "prio",
		Params:     afdx.DefaultParams(),
		EndSystems: []string{"a", "b", "c", "d"},
		Switches:   []string{"SW"},
		VLs: []*afdx.VirtualLink{
			{ID: "low1", Source: "a", BAGMs: 4, SMaxBytes: 1518, SMinBytes: 1518, Priority: 1,
				Paths: [][]string{{"a", "SW", "d"}}},
			{ID: "low2", Source: "b", BAGMs: 4, SMaxBytes: 1518, SMinBytes: 1518, Priority: 1,
				Paths: [][]string{{"b", "SW", "d"}}},
			{ID: "high", Source: "c", BAGMs: 4, SMaxBytes: 100, SMinBytes: 100, Priority: 0,
				Paths: [][]string{{"c", "SW", "d"}}},
		},
	}
	pg, err := afdx.BuildPortGraph(n, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	// The high frame becomes ready at SW->d while low1 is in service and
	// low2 is queued: it must be served before low2 (non-preemptive, so
	// it still waits for low1's tail).
	cfg := Config{
		DurationUs: 4000,
		OffsetsUs:  map[string]float64{"low1": 0, "low2": 0, "high": 30},
	}
	res, err := Run(pg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Timeline: low frames (121.44 us each) arrive SW at 16+121.44 =
	// 137.44, ready at 153.44, low1 serves [153.44, 274.88]. High frame:
	// emitted 30, arrives SW at 30+16+8 = 54, ready 70 -- before the low
	// frames! So it is served first [70, 78] and sees no contention at
	// all with these offsets; shift it to arrive mid-service instead.
	_ = res
	cfg.OffsetsUs["high"] = 150 // ready at SW->d at 150+24+16 = 190
	res, err = Run(pg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dHigh := res.Paths[afdx.PathID{VL: "high", PathIdx: 0}].MaxDelayUs
	// high: ready at 190 during low1's service [153.44, 274.88]; starts
	// 274.88 (overtaking low2), done 282.88; e2e = 282.88 - 150 = 132.88.
	if !almostEq(dHigh, 132.88) {
		t.Errorf("high-priority delay = %g, want 132.88 (overtakes low2)", dHigh)
	}
	// low2 waits for low1, the high frame, then itself.
	dLow2 := res.Paths[afdx.PathID{VL: "low2", PathIdx: 0}].MaxDelayUs
	if dLow2 <= dHigh {
		t.Errorf("low2 delay %g should exceed the high-priority delay %g", dLow2, dHigh)
	}
}

func TestUniformPriorityIsPlainFIFO(t *testing.T) {
	// Setting every VL to the same non-zero level must not change any
	// delay relative to the default level 0.
	base := afdx.Figure2Config()
	pgBase, err := afdx.BuildPortGraph(base, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	shifted := afdx.Figure2Config()
	for _, v := range shifted.VLs {
		v.Priority = 3
	}
	pgShift, err := afdx.BuildPortGraph(shifted, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		cfg := DefaultConfig(seed)
		cfg.DurationUs = 32_000
		a, err := Run(pgBase, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(pgShift, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for pid, st := range a.Paths {
			if b.Paths[pid].MaxDelayUs != st.MaxDelayUs {
				t.Errorf("seed %d path %v: uniform priority changed delay %g -> %g",
					seed, pid, st.MaxDelayUs, b.Paths[pid].MaxDelayUs)
			}
		}
	}
}

func TestSimBacklogWithinNCBound(t *testing.T) {
	pg := figure2Graph(t)
	nc, err := netcalc.Analyze(pg, netcalc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		cfg := DefaultConfig(seed)
		cfg.DurationUs = 64_000
		res, err := Run(pg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for id, bits := range res.MaxBacklogBits {
			if float64(bits) > nc.Ports[id].BacklogBits+1e-6 {
				t.Errorf("seed %d port %v: observed backlog %d bits above NC bound %g",
					seed, id, bits, nc.Ports[id].BacklogBits)
			}
		}
	}
}

func TestNCBufferSizingPreventsOverflow(t *testing.T) {
	// Dimension every port buffer with its NC backlog bound: no frame
	// may ever overflow, whatever the offsets.
	pg := figure2Graph(t)
	nc, err := netcalc.Analyze(pg, netcalc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	perPort := map[afdx.PortID]int64{}
	for id, p := range nc.Ports {
		perPort[id] = int64(math.Ceil(p.BacklogBits))
	}
	for seed := int64(0); seed < 15; seed++ {
		cfg := DefaultConfig(seed)
		cfg.DurationUs = 64_000
		cfg.BufferBitsPerPort = perPort
		cfg.BufferBits = 1 // would drop everything if the overrides were ignored
		res, err := Run(pg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.FramesOverflowed != 0 {
			t.Errorf("seed %d: %d overflows despite NC-sized buffers", seed, res.FramesOverflowed)
		}
	}
	// The adversarial synchronized burst too.
	cfg := Config{
		DurationUs:        4000,
		OffsetsUs:         map[string]float64{"v1": 0, "v2": 0, "v3": 0, "v4": 0, "v5": 0},
		BufferBitsPerPort: perPort,
	}
	res, err := Run(pg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesOverflowed != 0 {
		t.Errorf("burst: %d overflows despite NC-sized buffers", res.FramesOverflowed)
	}
}

func TestUndersizedBuffersOverflow(t *testing.T) {
	// A buffer smaller than one frame at the convergence port must drop
	// frames under a synchronized burst.
	pg := figure2Graph(t)
	cfg := Config{
		DurationUs: 4000,
		OffsetsUs:  map[string]float64{"v1": 0, "v2": 0, "v3": 0, "v4": 0, "v5": 2000},
		BufferBits: 4000, // room for exactly one queued 500B frame
	}
	res, err := Run(pg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesOverflowed == 0 {
		t.Error("expected overflows with a one-frame buffer under a synchronized burst")
	}
	delivered := 0
	for _, st := range res.Paths {
		delivered += st.Frames
	}
	if delivered+res.FramesOverflowed != res.FramesEmitted {
		t.Errorf("conservation: %d delivered + %d dropped != %d emitted",
			delivered, res.FramesOverflowed, res.FramesEmitted)
	}
}

func TestScheduleReplay(t *testing.T) {
	pg := figure2Graph(t)
	cfg := Config{
		DurationUs: 20_000,
		OffsetsUs:  map[string]float64{"v2": 10_000, "v3": 10_000, "v4": 10_000, "v5": 10_000},
		ScheduleUs: map[string][]float64{"v1": {0, 4000, 8000}},
	}
	res, err := Run(pg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Paths[afdx.PathID{VL: "v1", PathIdx: 0}]
	if st.Frames != 3 {
		t.Errorf("replayed v1 delivered %d frames, want 3", st.Frames)
	}
	// Other VLs keep their BAG-driven emission (offset 10ms, BAG 4ms,
	// horizon 20ms -> 3 frames each).
	if got := res.Paths[afdx.PathID{VL: "v2", PathIdx: 0}].Frames; got != 3 {
		t.Errorf("v2 delivered %d frames, want 3", got)
	}
}

func TestScheduleReplayAgainstPolicing(t *testing.T) {
	// A trace emitting twice as fast as the contract: policing must drop
	// roughly half of the replayed frames.
	pg := figure2Graph(t)
	var trace []float64
	for at := 0.0; at < 40_000; at += 2000 { // BAG is 4000 us
		trace = append(trace, at)
	}
	cfg := Config{
		DurationUs: 40_000,
		OffsetsUs:  map[string]float64{"v2": 1000, "v3": 1000, "v4": 1000, "v5": 1000},
		ScheduleUs: map[string][]float64{"v1": trace},
		Policing:   true,
	}
	res, err := Run(pg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesDropped < 8 || res.FramesDropped > 12 {
		t.Errorf("policing dropped %d frames of the double-rate trace, want ~10", res.FramesDropped)
	}
	st := res.Paths[afdx.PathID{VL: "v1", PathIdx: 0}]
	if st.Frames+res.FramesDropped != len(trace) {
		t.Errorf("conservation: %d delivered + %d dropped != %d emitted",
			st.Frames, res.FramesDropped, len(trace))
	}
}
