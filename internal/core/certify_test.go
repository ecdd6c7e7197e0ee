package core_test

import (
	"context"
	"slices"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/core"
	"afdx/internal/incremental"
	"afdx/internal/obs"
)

// certifyRuns are the two ways a certified comparison is produced: a
// direct core.Certify call, and one round of a what-if session under
// its default analysis (the round afdx-serve and afdx-bounds -delta
// run). Each returns the registry the run's counters landed in.
var certifyRuns = []struct {
	name string
	run  func(t *testing.T, net *afdx.Network) *obs.Registry
}{
	{"Certify", func(t *testing.T, net *afdx.Network) *obs.Registry {
		pg, err := afdx.BuildPortGraph(net, afdx.Strict)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		if _, err := core.Certify(obs.WithRegistry(context.Background(), reg), pg, 0); err != nil {
			t.Fatal(err)
		}
		return reg
	}},
	{"session round", func(t *testing.T, net *afdx.Network) *obs.Registry {
		sess, err := incremental.NewSession(net, incremental.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		if _, err := sess.Analyze(obs.WithRegistry(context.Background(), reg)); err != nil {
			t.Fatal(err)
		}
		return reg
	}},
}

// A certified comparison runs WCNC once: the trajectory engine takes
// its S_max prefix bounds from the comparison's own WCNC result, so the
// NC port counter sees every port exactly once, whether the comparison
// comes from Certify or from a session round.
func TestCompareRunsWCNCOnce(t *testing.T) {
	spec := configgen.DefaultSpec(1)
	spec.NumVLs = 60
	net, err := configgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*afdx.Network{afdx.Figure2Config(), net} {
		pg, err := afdx.BuildPortGraph(n, afdx.Strict)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range certifyRuns {
			reg := r.run(t, n)
			if got, want := reg.Snapshot().Counter("netcalc.ports_analyzed"), int64(len(pg.Ports)); got != want {
				t.Errorf("%s, %s: netcalc.ports_analyzed = %d, want %d (one WCNC run)", n.Name, r.name, got, want)
			}
		}
	}
}

// TestEngineMetricCatalog pins the instruments a certified comparison
// registers, by name and class: the counters and histograms DESIGN.md
// §9.1 lists for the engines and their worker pool, the same through
// Certify and through a session round. The benchmark ledger
// (cmd/afdx-bench) reads netcalc.ports_analyzed, netcalc.flow_envelopes,
// trajectory.candidate_offsets, trajectory.busy_period_iterations and
// parallel.tasks, so renaming or deleting one of those must fail here
// first.
func TestEngineMetricCatalog(t *testing.T) {
	want := []string{
		"netcalc.flow_envelopes deterministic",
		"netcalc.ports_analyzed deterministic",
		"netcalc.rank_size deterministic histogram",
		"parallel.batches deterministic",
		"parallel.pool_occupancy best-effort histogram",
		"parallel.tasks deterministic",
		"trajectory.busy_period_iterations deterministic",
		"trajectory.busy_period_rounds deterministic histogram",
		"trajectory.busy_periods deterministic",
		"trajectory.candidate_offsets deterministic",
		"trajectory.interference_set_size deterministic histogram",
		"trajectory.paths_analyzed deterministic",
	}
	for _, r := range certifyRuns {
		snap := r.run(t, afdx.Figure2Config()).Snapshot()
		var got []string
		for _, c := range snap.Counters {
			got = append(got, c.Name+" "+c.Class)
		}
		for _, h := range snap.Histograms {
			got = append(got, h.Name+" "+h.Class+" histogram")
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: engine metric catalog:\n got %q\nwant %q", r.name, got, want)
		}
	}
}
