package serve

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"testing"
	"time"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/core"
	"afdx/internal/incremental"
	"afdx/internal/netcalc"
	"afdx/internal/obs"
	"afdx/internal/obs/oplog"
	"afdx/internal/trajectory"
)

// The Cold/Served benchmark pair (afdx-benchjson pairs the suffixes):
// the same what-if question answered by a cold CLI-style run — full
// re-analysis of the mutated configuration — versus one warm afdx-serve
// session over real HTTP, wire round-trip included. Both compute
// bit-identical bounds (the served-conformance tier pins it); the ratio
// is the interactive-loop latency the daemon saves.

func benchNet(b *testing.B) *afdx.Network {
	b.Helper()
	spec := configgen.DefaultSpec(1)
	net, err := configgen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// benchDeltas returns two alternating peek questions, so the served
// variant answers an A/B alternation rather than one repeated
// question.
func benchDeltas(b *testing.B, net *afdx.Network) [2][]string {
	b.Helper()
	if len(net.VLs) < 2 {
		b.Fatal("bench config too small")
	}
	return [2][]string{
		{tightenDelta(net.VLs[0])},
		{tightenDelta(net.VLs[1])},
	}
}

func BenchmarkServeWhatIfCold(b *testing.B) {
	net := benchNet(b)
	deltas := benchDeltas(b, net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cand := net.Clone()
		ds, err := parseDeltas(deltas[i%2])
		if err != nil {
			b.Fatal(err)
		}
		if err := incremental.Apply(cand, ds...); err != nil {
			b.Fatal(err)
		}
		pg, err := afdx.BuildPortGraph(cand, afdx.Strict)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.CompareWith(pg, netcalc.DefaultOptions(), trajectory.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServeWhatIfServed(b *testing.B) {
	benchServedWhatIf(b, false)
}

// The ObsOff/ObsOn pair times the identical served what-if loop with
// the observability stack fully off versus fully on: structured JSON
// request and delta logs (written to io.Discard so the pair measures
// the layer, not the disk), per-request tracing retained in a 256-entry
// ring, slow-request detection with a threshold of 1µs (every request
// takes the slow-log path — the worst case), the runtime sampler, and
// per-bound provenance on every answer. afdx-benchjson pairs the
// suffixes into obs_off_on_pairs; the overhead budget is <= 5%.

func BenchmarkServeWhatIfObsOff(b *testing.B) {
	benchServedWhatIf(b, false)
}

func BenchmarkServeWhatIfObsOn(b *testing.B) {
	benchServedWhatIf(b, true)
}

// benchServedWhatIf runs the steady-state served what-if loop — one
// warm session, two alternating peek questions over real HTTP — with
// the observability layer fully on or fully off.
func benchServedWhatIf(b *testing.B, obsOn bool) {
	net := benchNet(b)
	deltas := benchDeltas(b, net)
	opts := testOptions()
	query := ""
	if obsOn {
		opts.Registry = obs.NewRegistry()
		opts.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
		opts.TraceRing = oplog.NewRing(256)
		opts.SlowRequestUs = 1
		query = "?provenance=1"
	}
	s := New(opts)
	ts := newUnmanagedServer(b, s)
	defer func() {
		if err := s.Drain(context.Background()); err != nil {
			b.Error(err)
		}
	}()
	if obsOn {
		sampler := oplog.NewRuntimeSampler(opts.Registry)
		sampler.AddGauge("serve.sessions_live", "live analysis sessions",
			func() int64 { return int64(s.SessionCount()) })
		defer sampler.Start(10 * time.Millisecond)()
	}
	id, err := (&Script{Net: net}).RunHTTP(ts.Client(), ts.URL, 0)
	if err != nil {
		b.Fatal(err)
	}
	url := ts.URL + "/v1/sessions/" + id + "/whatif" + query
	bodies := [2][]byte{}
	for i := range deltas {
		bodies[i], _ = json.Marshal(DeltaRequest{Deltas: deltas[i]})
	}
	// Warm both variants once so the benchmark measures the steady
	// interactive loop, not first-touch cache fills.
	var resp AnalysisResponse
	for i := range bodies {
		if err := postJSON(ts.Client(), url, bodies[i], &resp); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := postJSON(ts.Client(), url, bodies[i%2], &resp); err != nil {
			b.Fatal(err)
		}
	}
}
