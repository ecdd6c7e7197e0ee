package serve

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/diag"
)

// postRaw posts a body and decodes the error payload.
func postRaw(t *testing.T, ts interface {
	Client() *http.Client
}, url, body string) (int, ErrorBody) {
	t.Helper()
	resp, err := ts.Client().Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("error body did not decode as ErrorBody: %v", err)
	}
	return resp.StatusCode, eb
}

// TestHTTPErrorPaths pins every client-visible failure to its HTTP
// status and SRV diagnostic code — the served projection of the CLI
// exit-code contract (lint gate = exit 3 ↔ 422, usage = exit 2 ↔
// 400/404/413). Scripted clients key on these; they must not drift.
func TestHTTPErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	net := testNet(t, 7, 8)
	cfg, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	// A lint-rejected configuration: an out-of-contract frame size
	// (8000 > the 1518-byte Ethernet maximum) that still decodes.
	badNet := net.Clone()
	badNet.VLs[0].SMaxBytes = 8000
	badCfg, err := json.Marshal(badNet)
	if err != nil {
		t.Fatal(err)
	}
	id, err := (&Script{Net: net}).RunHTTP(ts.Client(), ts.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A second server validates Relaxed, where out-of-standard BAGs are
	// only warnings; rows whose path is a full URL target it.
	relaxedOpts := testOptions()
	relaxedOpts.Mode = afdx.Relaxed
	_, relaxed := newTestServer(t, relaxedOpts)
	rid, err := (&Script{Net: net}).RunHTTP(relaxed.Client(), relaxed.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	vl := net.VLs[0].ID

	cases := []struct {
		name       string
		path       string
		body       string
		wantStatus int
		wantCode   diag.Code
		wantDiags  bool
	}{
		{"malformed config JSON", "/v1/sessions", "{", http.StatusBadRequest, CodeParse, false},
		{"config with unknown field", "/v1/sessions", `{"bogus": 1}`, http.StatusBadRequest, CodeParse, false},
		{"lint-rejected config", "/v1/sessions", string(badCfg), http.StatusUnprocessableEntity, CodeLintRejected, true},
		{"bad parallel parameter", "/v1/sessions?parallel=-1", string(cfg), http.StatusBadRequest, CodeInvalidConfig, false},
		{"unknown session whatif", "/v1/sessions/nope/whatif", `{"deltas":["drop v1"]}`, http.StatusNotFound, CodeUnknownSession, false},
		{"unknown session apply", "/v1/sessions/nope/apply", `{"deltas":["drop v1"]}`, http.StatusNotFound, CodeUnknownSession, false},
		{"malformed delta JSON", "/v1/sessions/" + id + "/whatif", "not json", http.StatusBadRequest, CodeParse, false},
		{"unparseable delta", "/v1/sessions/" + id + "/whatif", `{"deltas":["frobnicate v1 2"]}`, http.StatusBadRequest, CodeBadDelta, false},
		{"empty delta batch", "/v1/sessions/" + id + "/whatif", `{"deltas":[]}`, http.StatusBadRequest, CodeBadDelta, false},
		{"delta on unknown VL", "/v1/sessions/" + id + "/whatif", `{"deltas":["drop nosuchvl"]}`, http.StatusUnprocessableEntity, CodeDeltaRejected, false},
		{"unknown analysis tier on create", "/v1/sessions?analysis=sfa", string(cfg), http.StatusBadRequest, CodeUnknownAnalysis, false},
		{"unknown analysis tier on whatif", "/v1/sessions/" + id + "/whatif?analysis=pmoo", `{"deltas":["drop v1"]}`, http.StatusBadRequest, CodeUnknownAnalysis, false},
		{"unknown analysis tier on apply", "/v1/sessions/" + id + "/apply?analysis=nope", `{"deltas":["drop v1"]}`, http.StatusBadRequest, CodeUnknownAnalysis, false},
		{"TFA tier on whatif", "/v1/sessions/" + id + "/whatif?analysis=TFA", `{"deltas":["drop v1"]}`, http.StatusBadRequest, CodeUnknownAnalysis, false},
		{"apply rejected leaves session usable", "/v1/sessions/" + id + "/apply", `{"deltas":["drop nosuchvl"]}`, http.StatusUnprocessableEntity, CodeDeltaRejected, false},
		{"non-finite BAG delta", "/v1/sessions/" + id + "/whatif", `{"deltas":["bag ` + vl + ` Inf"]}`, http.StatusBadRequest, CodeBadDelta, false},
		{"BAG overflowing to Inf us on a relaxed server", relaxed.URL + "/v1/sessions/" + rid + "/whatif", `{"deltas":["bag ` + vl + ` 1e306"]}`, http.StatusUnprocessableEntity, CodeDeltaRejected, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			url := tc.path
			if strings.HasPrefix(url, "/") {
				url = ts.URL + url
			}
			status, eb := postRaw(t, ts, url, tc.body)
			if status != tc.wantStatus {
				t.Errorf("status = %d, want %d", status, tc.wantStatus)
			}
			if eb.Error.Code != tc.wantCode {
				t.Errorf("code = %s, want %s", eb.Error.Code, tc.wantCode)
			}
			if eb.Error.Severity != diag.Error {
				t.Errorf("severity = %v, want error", eb.Error.Severity)
			}
			if eb.Error.Message == "" {
				t.Error("empty error message")
			}
			if tc.wantDiags && len(eb.Diagnostics) == 0 {
				t.Error("lint rejection carried no diagnostics")
			}
		})
	}

	// The rejected deltas above must not have wedged or mutated the
	// session: a no-op-free peek still answers.
	var resp AnalysisResponse
	body, _ := json.Marshal(DeltaRequest{Deltas: []string{tightenDelta(net.VLs[0])}})
	if err := postJSON(ts.Client(), ts.URL+"/v1/sessions/"+id+"/whatif", body, &resp); err != nil {
		t.Fatalf("session unusable after rejected deltas: %v", err)
	}
}

// TestFailedApplyLeavesSessionUnchanged pins commit-on-success: an
// /apply whose analysis fails — a priority change the trajectory engine
// rejects as mixed-priority — answers 500 SRV010 and does not commit,
// so the same peek answers 200 with the same paths before and after.
func TestFailedApplyLeavesSessionUnchanged(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	net := testNet(t, 7, 8)
	id, err := (&Script{Net: net}).RunHTTP(ts.Client(), ts.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	vl := net.VLs[0].ID
	peek := func() AnalysisResponse {
		t.Helper()
		var resp AnalysisResponse
		body := `{"deltas":["bag ` + vl + ` 2"]}`
		if err := postJSON(ts.Client(), ts.URL+"/v1/sessions/"+id+"/whatif", []byte(body), &resp); err != nil {
			t.Fatalf("peek: %v", err)
		}
		return resp
	}
	before := peek()
	status, eb := postRaw(t, ts, ts.URL+"/v1/sessions/"+id+"/apply", `{"deltas":["priority `+vl+` 1"]}`)
	if status != http.StatusInternalServerError || eb.Error.Code != CodeAnalysis {
		t.Fatalf("failing apply: status %d code %s, want 500 %s", status, eb.Error.Code, CodeAnalysis)
	}
	if after := peek(); !reflect.DeepEqual(after.Paths, before.Paths) {
		t.Error("peek after a failed apply differs from the peek before it: the failed batch was committed")
	}
}

// TestOversizedBody pins the body cap to 413 + SRV004.
func TestOversizedBody(t *testing.T) {
	opts := testOptions()
	opts.MaxBodyBytes = 256
	_, ts := newTestServer(t, opts)
	big := `{"pad": "` + strings.Repeat("x", 1024) + `"}`
	status, eb := postRaw(t, ts, ts.URL+"/v1/sessions", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", status)
	}
	if eb.Error.Code != CodeBodyTooLarge {
		t.Errorf("code = %s, want %s", eb.Error.Code, CodeBodyTooLarge)
	}
}

// TestInvalidConfigNoLint pins that with the lint gate off, a
// structurally invalid configuration still fails cleanly (400 SRV011
// from session construction) rather than 500.
func TestInvalidConfigNoLint(t *testing.T) {
	opts := testOptions()
	opts.NoLint = true
	_, ts := newTestServer(t, opts)
	status, eb := postRaw(t, ts, ts.URL+"/v1/sessions", `{"name": "empty"}`)
	if status != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", status)
	}
	if eb.Error.Code != CodeInvalidConfig {
		t.Errorf("code = %s, want %s", eb.Error.Code, CodeInvalidConfig)
	}
}

// TestLintGateMirrorsBoundsExitContract cross-checks the 422 lint gate
// against the linter itself: any configuration the gate refuses must be
// one afdx-bounds' preflight would abort (exit 3), and vice versa a
// lint-clean configuration must be accepted.
func TestLintGateMirrorsBoundsExitContract(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	net := testNet(t, 19, 8)
	cfg, _ := json.Marshal(net)
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(string(cfg)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("lint-clean config refused: HTTP %d", resp.StatusCode)
	}
	bad := net.Clone()
	bad.VLs[0].SMaxBytes = afdx.MaxFrameBytes * 4
	badCfg, _ := json.Marshal(bad)
	status, eb := postRaw(t, ts, ts.URL+"/v1/sessions", string(badCfg))
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("lint-dirty config: HTTP %d, want 422", status)
	}
	for _, d := range eb.Diagnostics {
		if d.Severity == diag.Error {
			return // the gate surfaced the lint error(s), as the CLI does
		}
	}
	t.Error("422 body carried no Error-severity lint diagnostic")
}
