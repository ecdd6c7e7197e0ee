package afdx_test

// Observability non-interference tests: attaching a metrics registry
// and/or a span tracer must not change a single bit of either engine's
// results, and the Deterministic subset of the metric snapshot must be
// identical across worker counts and with tracing on vs. off. This is
// the acceptance contract of the observability layer — it observes the
// computation, it never participates in it.

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"afdx"
	"afdx/internal/configgen"
	"afdx/internal/obs"
	"afdx/internal/obs/oplog"
	"afdx/internal/serve"
)

// TestObservationBitIdenticalAndSnapshotsStable runs both engines on
// the paper's sample configuration under every combination of worker
// count and tracing, demanding (a) bit-identical bounds against the
// unobserved reference and (b) deeply equal Deterministic snapshots.
func TestObservationBitIdenticalAndSnapshotsStable(t *testing.T) {
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

	var baseline *afdx.ObsSnapshot
	for _, workers := range []int{1, 2, 8} {
		for _, traced := range []bool{false, true} {
			reg := afdx.NewObsRegistry()
			var tr *afdx.ObsTracer
			if traced {
				tr = afdx.NewObsTracer()
			}
			ctx := afdx.WithObservation(context.Background(), reg, tr)
			ncOpts.Parallel = workers
			trOpts.Parallel = workers
			nc, err := afdx.AnalyzeNCCtx(ctx, pg, ncOpts)
			if err != nil {
				t.Fatal(err)
			}
			sameNCResults(t, "observed NC", ncRef, nc)
			traj, err := afdx.AnalyzeTrajectoryCtx(ctx, pg, trOpts)
			if err != nil {
				t.Fatal(err)
			}
			sameTrajectoryResults(t, "observed trajectory", trRef, traj)

			snap := reg.Snapshot().Deterministic()
			if len(snap.Counters) == 0 {
				t.Fatal("instrumented run registered no deterministic counters")
			}
			if baseline == nil {
				baseline = snap
				continue
			}
			if !reflect.DeepEqual(baseline, snap) {
				t.Errorf("Deterministic snapshot differs at workers=%d traced=%v:\nbase: %+v\ngot:  %+v",
					workers, traced, baseline, snap)
			}
		}
	}
}

// TestServedObservabilityNonInterference extends the non-interference
// contract to the operational layer: a served what-if script answers
// bit-identical bounds and accumulates a deeply equal Deterministic
// snapshot whether the observability stack (structured JSON logging,
// per-request tracing with ring retention, slow-request detection, the
// runtime sampler, per-bound provenance) is fully enabled or fully
// off, at engine worker counts 1 and 4 — and the fully observed
// script still passes the served-conformance cold replay.
func TestServedObservabilityNonInterference(t *testing.T) {
	spec := configgen.DefaultSpec(7)
	spec.NumSwitches = 3
	spec.ESPerSwitch = 3
	spec.NumVLs = 16
	net, err := configgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int, obsOn bool) (*serve.Script, *obs.Snapshot) {
		t.Helper()
		reg := obs.NewRegistry()
		opts := serve.Options{
			Mode:           afdx.Strict,
			MaxSessions:    8,
			RequestTimeout: time.Minute,
			Registry:       reg,
		}
		if obsOn {
			opts.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
			opts.TraceRing = oplog.NewRing(64)
			opts.SlowRequestUs = 1 // every request takes the slow-log path
		}
		s := serve.New(opts)
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
			ts.Close()
		}()
		if obsOn {
			sampler := oplog.NewRuntimeSampler(reg)
			sampler.AddGauge("serve.sessions_live", "live sessions",
				func() int64 { return int64(s.SessionCount()) })
			defer sampler.Start(time.Millisecond)()
		}
		script, err := serve.SeededScript(net, 11, 12)
		if err != nil {
			t.Fatal(err)
		}
		script.Provenance = obsOn
		if _, err := script.RunHTTP(ts.Client(), ts.URL, workers); err != nil {
			t.Fatal(err)
		}
		return script, reg.Snapshot().Deterministic()
	}

	for _, workers := range []int{1, 4} {
		off, offSnap := run(workers, false)
		on, onSnap := run(workers, true)

		if !reflect.DeepEqual(off.Base.Paths, on.Base.Paths) {
			t.Errorf("workers=%d: base bounds differ with observability on", workers)
		}
		for i := range off.Steps {
			a, b := off.Steps[i].Response, on.Steps[i].Response
			if !reflect.DeepEqual(a.Paths, b.Paths) {
				t.Errorf("workers=%d step %d %v: bounds differ with observability on",
					workers, i, off.Steps[i].Deltas)
			}
			if a.Seq != b.Seq || a.Committed != b.Committed {
				t.Errorf("workers=%d step %d: round bookkeeping differs (%d/%v vs %d/%v)",
					workers, i, a.Seq, a.Committed, b.Seq, b.Committed)
			}
			if b.Provenance == nil {
				t.Errorf("workers=%d step %d: provenance missing on the observed run", workers, i)
			}
		}
		if len(offSnap.Counters) == 0 {
			t.Fatal("served run registered no deterministic counters")
		}
		if !reflect.DeepEqual(offSnap, onSnap) {
			t.Errorf("workers=%d: Deterministic snapshot differs with observability on:\noff: %+v\non:  %+v",
				workers, offSnap, onSnap)
		}
		// The fully observed script must still verify against cold
		// anchors — observation cannot move a bound off its anchor.
		for _, par := range []int{1, 4} {
			mm, err := on.VerifyCold(context.Background(), afdx.Strict, par)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range mm {
				t.Errorf("workers=%d cold par=%d: %s", workers, par, m)
			}
		}
	}
}

// TestObservedSpanShapeStableAcrossWorkers checks the span *set* of an
// engine run — the multiset of completed span label paths — at every
// worker count: one span per engine run, however many ports and paths
// the run analyses. The trajectory run's private WCNC prefix analysis
// is a child of its span.
func TestObservedSpanShapeStableAcrossWorkers(t *testing.T) {
	pg, err := afdx.BuildPortGraph(afdx.Figure2Config(), afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	shape := func(workers int) []string {
		tr := afdx.NewObsTracer()
		ctx := afdx.WithObservation(context.Background(), nil, tr)
		ncOpts := afdx.DefaultNCOptions()
		ncOpts.Parallel = workers
		if _, err := afdx.AnalyzeNCCtx(ctx, pg, ncOpts); err != nil {
			t.Fatal(err)
		}
		trOpts := afdx.DefaultTrajectoryOptions()
		trOpts.Parallel = workers
		if _, err := afdx.AnalyzeTrajectoryCtx(ctx, pg, trOpts); err != nil {
			t.Fatal(err)
		}
		return tr.Shape()
	}
	want := []string{"netcalc", "trajectory", "trajectory/netcalc"}
	for _, workers := range []int{1, 2, 8} {
		if got := shape(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("span shape at %d workers:\ngot:  %v\nwant: %v", workers, got, want)
		}
	}
}
