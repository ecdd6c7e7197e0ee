package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
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
// canonical order, or a JSON ErrorBody held to checkAnswer's contract.
// Never a panic, and never a body that is not JSON.
func FuzzServeWhatIf(f *testing.F) {
	h := fuzzHandler(f)
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

	for _, seed := range deltaSeeds {
		f.Add(seed.body, seed.analysis, seed.provenance)
	}

	f.Fuzz(func(t *testing.T, body, analysis, provenance string) {
		target := "/v1/sessions/" + created.Session + "/whatif?" + query("analysis", analysis, "provenance", provenance)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
		checkAnswer(t, rec, http.StatusOK, func() *afdx.Network { return peekedNet(t, body) })
	})
}

// deltaSeeds seeds the delta-batch fuzz targets: the /whatif rows of
// TestHTTPErrorPaths, a config body sent to the wrong endpoint, an
// engine refusal (mixed priorities), an added VL, and a valid batch
// with every query value set.
var deltaSeeds = []struct{ body, analysis, provenance string }{
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
}

// FuzzServeApply sends arbitrary /apply bodies and ?analysis= /
// ?provenance= values, each to a fresh Strict Figure 2 session. Every
// answer is held to checkAnswer's contract against the committed
// configuration, and the session's info shows commit-on-success:
// appliedDeltas is the batch's delta count after a 200 and 0 after
// anything else. Each session is deleted, so the pool never fills.
func FuzzServeApply(f *testing.F) {
	h := fuzzHandler(f)
	var fig2 bytes.Buffer
	if err := afdx.Figure2Config().WriteJSON(&fig2); err != nil {
		f.Fatal(err)
	}
	// The /apply rows of TestHTTPErrorPaths, then the /whatif seeds.
	f.Add(`{"deltas":["drop v1"]}`, "nope", "")
	f.Add(`{"deltas":["drop nosuchvl"]}`, "", "")
	for _, seed := range deltaSeeds {
		f.Add(seed.body, seed.analysis, seed.provenance)
	}

	f.Fuzz(func(t *testing.T, body, analysis, provenance string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(fig2.Bytes())))
		var created AnalysisResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &created); rec.Code != http.StatusCreated || err != nil {
			t.Fatalf("session upload: status %d, %v: %s", rec.Code, err, rec.Body)
		}
		session := "/v1/sessions/" + created.Session
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, session+"/apply?"+query("analysis", analysis, "provenance", provenance), strings.NewReader(body)))
		applied := 0
		if checkAnswer(t, rec, http.StatusOK, func() *afdx.Network { return peekedNet(t, body) }) != nil {
			var req DeltaRequest
			if err := newStrictDecoder(strings.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("a 200 for a body that does not decode: %v", err)
			}
			applied = len(req.Deltas)
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, session, nil))
		var info SessionInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("session info: status %d, %v: %s", rec.Code, err, rec.Body)
		}
		if info.Applied != applied {
			t.Fatalf("appliedDeltas = %d after this answer, want %d", info.Applied, applied)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, session, nil))
		if rec.Code != http.StatusNoContent {
			t.Fatalf("deleting session %q: status %d: %s", created.Session, rec.Code, rec.Body)
		}
	})
}

// FuzzServeUpload sends arbitrary POST /v1/sessions bodies and
// ?parallel= / ?analysis= / ?provenance= values. Every answer must be
// either a 201 carrying every path of the uploaded configuration, in
// canonical order, or a JSON ErrorBody held to checkAnswer's contract.
// Each created session is deleted, so the pool never fills.
func FuzzServeUpload(f *testing.F) {
	h := fuzzHandler(f)
	var fig2 bytes.Buffer
	if err := afdx.Figure2Config().WriteJSON(&fig2); err != nil {
		f.Fatal(err)
	}
	net := testNet(f, 7, 8)
	cfg, err := json.Marshal(net)
	if err != nil {
		f.Fatal(err)
	}
	bad := net.Clone()
	bad.VLs[0].SMaxBytes = 8000
	badCfg, err := json.Marshal(bad)
	if err != nil {
		f.Fatal(err)
	}
	unstable, err := os.ReadFile(filepath.Join("..", "lint", "testdata", "unstable_port.json"))
	if err != nil {
		f.Fatal(err)
	}

	// The upload rows of TestHTTPErrorPaths, Figure 2 bare and with
	// every query value set, and a lint corpus file that decodes and
	// validates but fails the stability check (AFDX001).
	for _, seed := range []struct{ body, parallel, analysis, provenance string }{
		{"{", "", "", ""},
		{`{"bogus": 1}`, "", "", ""},
		{string(badCfg), "", "", ""},
		{string(cfg), "-1", "", ""},
		{string(cfg), "", "sfa", ""},
		{fig2.String(), "", "", ""},
		{fig2.String(), "2", "fifo", "1"},
		{string(unstable), "", "", ""},
	} {
		f.Add(seed.body, seed.parallel, seed.analysis, seed.provenance)
	}

	f.Fuzz(func(t *testing.T, body, parallel, analysis, provenance string) {
		target := "/v1/sessions?" + query("parallel", parallel, "analysis", analysis, "provenance", provenance)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
		created := checkAnswer(t, rec, http.StatusCreated, func() *afdx.Network {
			net, err := afdx.DecodeJSON(strings.NewReader(body))
			if err != nil {
				t.Fatalf("a 201 for a body that does not decode: %v", err)
			}
			return net
		})
		if created != nil {
			del := httptest.NewRecorder()
			h.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/sessions/"+created.Session, nil))
			if del.Code != http.StatusNoContent {
				t.Fatalf("deleting session %q: status %d: %s", created.Session, del.Code, del.Body)
			}
		}
	})
}

// fuzzHandler returns the handler of a server with the test options,
// drained when the fuzz target ends.
func fuzzHandler(f *testing.F) http.Handler {
	s := New(testOptions())
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			f.Errorf("drain: %v", err)
		}
	})
	return s.Handler()
}

// query encodes the non-empty values of key, value pairs.
func query(kv ...string) string {
	q := url.Values{}
	for i := 0; i < len(kv); i += 2 {
		if kv[i+1] != "" {
			q.Set(kv[i], kv[i+1])
		}
	}
	return q.Encode()
}

// checkAnswer holds one answer to the served contract and returns the
// decoded success response, or nil for an error answer. A success has
// status ok and carries every path of the configuration want returns,
// in canonical order; anything else is a JSON ErrorBody whose code is
// one of SRV001–SRV013, sent with the status httpStatus maps that code
// to (so a 500 only as SRV010, an engine failure).
func checkAnswer(t *testing.T, rec *httptest.ResponseRecorder, ok int, want func() *afdx.Network) *AnalysisResponse {
	t.Helper()
	if rec.Code == ok {
		var resp AnalysisResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%d body is not an AnalysisResponse: %v\n%s", ok, err, rec.Body)
		}
		ids := want().AllPaths()
		afdx.SortPathIDs(ids)
		if len(resp.Paths) != len(ids) {
			t.Fatalf("%d with %d paths, want %d", ok, len(resp.Paths), len(ids))
		}
		for i, pb := range resp.Paths {
			if pb.Path != ids[i].String() {
				t.Fatalf("path %d is %q, want %q", i, pb.Path, ids[i])
			}
		}
		return &resp
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
	return nil
}

// peekedNet returns Figure 2 with the request's deltas applied: the
// configuration a successful peek must answer for.
func peekedNet(t *testing.T, body string) *afdx.Network {
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
	return net
}
