package serve

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// TestServedTierLadder peeks one delta under every accepted ?analysis=
// spelling on the same committed state: each answer echoes the
// canonical name, carries the default answer's paths bit for bit (the
// engine computes one bound for WCNC and FIFO), and anchors against
// the one cold run.
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

	delta := tightenDelta(net.VLs[0])
	body, _ := json.Marshal(DeltaRequest{Deltas: []string{delta}})
	sc := &Script{Net: net.Clone(), Base: &base}
	var dflt *AnalysisResponse
	for _, tc := range []struct{ param, echo string }{
		{"", "WCNC"}, {"WCNC", "WCNC"}, {"FIFO", "FIFO"}, {"fifo", "FIFO"},
	} {
		url := ts.URL + "/v1/sessions/" + base.Session + "/whatif"
		if tc.param != "" {
			url += "?analysis=" + tc.param
		}
		resp := &AnalysisResponse{}
		if err := postJSON(ts.Client(), url, body, resp); err != nil {
			t.Fatalf("analysis=%q: %v", tc.param, err)
		}
		if resp.Analysis != tc.echo {
			t.Errorf("analysis=%q: response analysis = %q, want %q", tc.param, resp.Analysis, tc.echo)
		}
		if dflt == nil {
			dflt = resp
			if len(dflt.Paths) == 0 {
				t.Fatal("default answer carries no paths")
			}
		} else if !reflect.DeepEqual(resp.Paths, dflt.Paths) {
			t.Errorf("analysis=%q: paths differ from the default answer", tc.param)
		}
		sc.Steps = append(sc.Steps, Step{Deltas: []string{delta}, Analysis: tc.param, Response: resp})
	}
	mm, err := sc.VerifyCold(context.Background(), testOptions().Mode, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mm {
		t.Errorf("served != cold: %s", m)
	}
}

// TestServedTierProvenance pins the provenance record's analysis echo.
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
