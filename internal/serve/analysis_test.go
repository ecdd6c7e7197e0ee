package serve

import (
	"context"
	"encoding/json"
	"testing"

	"afdx/internal/netcalc"
)

// TestServedTierLadder drives one session through both tiers on the
// same committed configuration and checks the served responses carry
// the tier name, agree exactly (FIFO == WCNC) on every path's NC
// figure, and anchor bit-identically against cold runs of their own
// tier.
func TestServedTierLadder(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	net := testNet(t, 11, 16)
	cfg, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	var base AnalysisResponse
	if err := postJSON(ts.Client(), ts.URL+"/v1/sessions?parallel=1", cfg, &base); err != nil {
		t.Fatal(err)
	}
	if base.Analysis != "WCNC" {
		t.Errorf("base round analysis = %q, want WCNC default", base.Analysis)
	}

	// Peek the same tightening delta under each tier; the session's
	// committed state never changes, so both answers describe one
	// configuration.
	delta := tightenDelta(net.VLs[0])
	body, _ := json.Marshal(DeltaRequest{Deltas: []string{delta}})
	tiers := []netcalc.Analysis{netcalc.AnalysisWCNC, netcalc.AnalysisFIFO}
	byTier := map[string]*AnalysisResponse{}
	for _, tier := range tiers {
		var resp AnalysisResponse
		url := ts.URL + "/v1/sessions/" + base.Session + "/whatif?analysis=" + tier.String()
		if err := postJSON(ts.Client(), url, body, &resp); err != nil {
			t.Fatalf("%v: %v", tier, err)
		}
		if resp.Analysis != tier.String() {
			t.Errorf("%v: response analysis = %q", tier, resp.Analysis)
		}
		byTier[tier.String()] = &resp
	}
	wcnc, fifo := byTier["WCNC"], byTier["FIFO"]
	if len(wcnc.Paths) == 0 || len(wcnc.Paths) != len(fifo.Paths) {
		t.Fatalf("path count mismatch across tiers: %d/%d", len(wcnc.Paths), len(fifo.Paths))
	}
	for i := range wcnc.Paths {
		pw, pf := wcnc.Paths[i], fifo.Paths[i]
		if pw.Path != pf.Path {
			t.Fatalf("path order diverged across tiers at %d", i)
		}
		if pf.NCUs != pw.NCUs {
			t.Errorf("%s: FIFO %v differs from WCNC %v", pf.Path, pf.NCUs, pw.NCUs)
		}
	}

	// Each tier's served round anchors exactly against a cold run at
	// that tier (the recorded Analysis field drives the anchor).
	sc := &Script{Net: net.Clone(), Base: &base}
	for _, tier := range tiers {
		sc.Steps = append(sc.Steps, Step{
			Deltas:   []string{delta},
			Analysis: tier.String(),
			Response: byTier[tier.String()],
		})
	}
	mm, err := sc.VerifyCold(context.Background(), testOptions().Mode, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mm {
		t.Errorf("served != cold: %s", m)
	}
}

// TestServedTierProvenance pins the provenance record's tier field.
func TestServedTierProvenance(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	net := testNet(t, 13, 8)
	cfg, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	var base AnalysisResponse
	if err := postJSON(ts.Client(), ts.URL+"/v1/sessions?provenance=1&analysis=fifo", cfg, &base); err != nil {
		t.Fatal(err)
	}
	if base.Analysis != "FIFO" {
		t.Errorf("base analysis = %q, want FIFO", base.Analysis)
	}
	if base.Provenance == nil || base.Provenance.Analysis != "FIFO" {
		t.Errorf("provenance = %+v, want Analysis FIFO", base.Provenance)
	}
	body, _ := json.Marshal(DeltaRequest{Deltas: []string{tightenDelta(net.VLs[0])}})
	var resp AnalysisResponse
	if err := postJSON(ts.Client(), ts.URL+"/v1/sessions/"+base.Session+"/apply?provenance=1&analysis=wcnc", body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Provenance == nil || resp.Provenance.Analysis != "WCNC" {
		t.Errorf("apply provenance = %+v, want Analysis WCNC", resp.Provenance)
	}
}
