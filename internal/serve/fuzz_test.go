package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"afdx/internal/afdx"
	"afdx/internal/incremental"
)

// FuzzServeWhatIf sends arbitrary /whatif bodies and ?analysis= /
// ?provenance= values to a Strict Figure 2 session. Every answer must
// be either a 200 carrying every path of the peeked configuration, in
// canonical order, or a JSON ErrorBody whose code is one of
// SRV001–SRV013, sent with the status httpStatus maps that code to (so
// a 500 only as SRV010, an engine failure). Never a panic, and never a
// body that is not JSON.
func FuzzServeWhatIf(f *testing.F) {
	s := New(testOptions())
	h := s.Handler()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			f.Errorf("drain: %v", err)
		}
	})
	var cfg bytes.Buffer
	if err := afdx.Figure2Config().WriteJSON(&cfg); err != nil {
		f.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", &cfg))
	var created AnalysisResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &created); rec.Code != http.StatusCreated || err != nil {
		f.Fatalf("session upload: status %d, %v: %s", rec.Code, err, rec.Body)
	}

	// The /whatif rows of TestHTTPErrorPaths, a config body sent to the
	// wrong endpoint, an engine refusal (mixed priorities), an added VL,
	// and a valid peek with every query value set.
	for _, seed := range []struct{ body, analysis, provenance string }{
		{"not json", "", ""},
		{`{"deltas":["frobnicate v1 2"]}`, "", ""},
		{`{"deltas":[]}`, "", ""},
		{`{"deltas":["drop nosuchvl"]}`, "", ""},
		{`{"deltas":["drop v1"]}`, "pmoo", ""},
		{`{"deltas":["drop v1"]}`, "TFA", ""},
		{`{"deltas":["bag v1 Inf"]}`, "", ""},
		{`{"deltas":["bag v1 1e306"]}`, "", ""},
		{`{"bogus": 1}`, "", ""},
		{`{"deltas":["priority v3 1"]}`, "", ""},
		{`{"deltas":["add {\"id\":\"v9\",\"source\":\"e1\",\"bagMs\":2,\"sMaxBytes\":300,\"sMinBytes\":64,\"paths\":[[\"e1\",\"S1\",\"S3\",\"e6\"]]}"]}`, "", ""},
		{`{"deltas":["smax v1 100","bag v2 4"]}`, "fifo", "1"},
	} {
		f.Add(seed.body, seed.analysis, seed.provenance)
	}

	f.Fuzz(func(t *testing.T, body, analysis, provenance string) {
		q := url.Values{}
		if analysis != "" {
			q.Set("analysis", analysis)
		}
		if provenance != "" {
			q.Set("provenance", provenance)
		}
		target := "/v1/sessions/" + created.Session + "/whatif?" + q.Encode()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))

		if rec.Code == http.StatusOK {
			var resp AnalysisResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body is not an AnalysisResponse: %v\n%s", err, rec.Body)
			}
			want := peekedPaths(t, body)
			if len(resp.Paths) != len(want) {
				t.Fatalf("200 with %d paths, want %d", len(resp.Paths), len(want))
			}
			for i, pb := range resp.Paths {
				if pb.Path != want[i] {
					t.Fatalf("path %d is %q, want %q", i, pb.Path, want[i])
				}
			}
			return
		}
		var eb ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("status %d with a body that is not a JSON ErrorBody: %v\n%s", rec.Code, err, rec.Body)
		}
		code := string(eb.Error.Code)
		n, err := strconv.Atoi(strings.TrimPrefix(code, "SRV"))
		if !strings.HasPrefix(code, "SRV") || err != nil || n < 1 || n > 13 {
			t.Fatalf("status %d with code %q, want one of SRV001–SRV013", rec.Code, code)
		}
		if want := httpStatus(eb.Error.Code); rec.Code != want {
			t.Fatalf("code %s sent with status %d, want %d", code, rec.Code, want)
		}
		if rec.Code == http.StatusInternalServerError && eb.Error.Code != CodeAnalysis {
			t.Fatalf("500 with code %s, want only %s", code, CodeAnalysis)
		}
	})
}

// peekedPaths returns the canonical path list of Figure 2 with the
// request's deltas applied: what a successful peek must answer with.
func peekedPaths(t *testing.T, body string) []string {
	t.Helper()
	var req DeltaRequest
	if err := newStrictDecoder(strings.NewReader(body)).Decode(&req); err != nil {
		t.Fatalf("a 200 for a body that does not decode: %v", err)
	}
	net := afdx.Figure2Config()
	for _, cmd := range req.Deltas {
		d, err := incremental.ParseDelta(cmd)
		if err != nil {
			t.Fatalf("a 200 for an unparseable delta %q: %v", cmd, err)
		}
		if err := incremental.Apply(net, d); err != nil {
			t.Fatalf("a 200 for a delta that does not apply %q: %v", cmd, err)
		}
	}
	ids := net.AllPaths()
	afdx.SortPathIDs(ids)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = id.String()
	}
	return out
}
