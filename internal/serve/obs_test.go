package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"afdx/internal/obs"
	"afdx/internal/obs/oplog"
)

// uploadSession posts a test network and returns the base response.
func uploadSession(t *testing.T, ts *httptest.Server, seed int64, vls int, query string) AnalysisResponse {
	t.Helper()
	cfg, err := json.Marshal(testNet(t, seed, vls))
	if err != nil {
		t.Fatal(err)
	}
	var base AnalysisResponse
	if err := postJSON(ts.Client(), ts.URL+"/v1/sessions?parallel=1"+query, cfg, &base); err != nil {
		t.Fatal(err)
	}
	return base
}

// TestTraceEndpoints pins the tentpole's trace surface: requests leave
// retained traces listed newest-first on /v1/trace, and /v1/trace/{id}
// serves the repository's canonical Chrome-trace encoding — the same
// shape as the golden fixture in internal/obs/testdata — with the
// request's engine spans inside.
func TestTraceEndpoints(t *testing.T) {
	opts := testOptions()
	opts.TraceRing = oplog.NewRing(8)
	_, ts := newTestServer(t, opts)
	base := uploadSession(t, ts, 7, 8, "")

	body, _ := json.Marshal(DeltaRequest{Deltas: []string{"bag v0001 16"}})
	var resp AnalysisResponse
	if err := postJSON(ts.Client(), ts.URL+"/v1/sessions/"+base.Session+"/whatif", body, &resp); err != nil {
		t.Fatal(err)
	}

	var list TraceList
	getJSON(t, ts, "/v1/trace", &list)
	if len(list.Traces) < 2 {
		t.Fatalf("want >= 2 retained traces, got %d", len(list.Traces))
	}
	// Newest first: the whatif POST precedes the upload in the list.
	if list.Traces[0].Path != "/v1/sessions/"+base.Session+"/whatif" {
		t.Errorf("newest trace path = %q", list.Traces[0].Path)
	}
	if list.Traces[0].Session != base.Session {
		t.Errorf("trace session = %q, want %q", list.Traces[0].Session, base.Session)
	}
	if list.Traces[0].Status != http.StatusOK || list.Traces[0].Events == 0 {
		t.Errorf("trace summary = %+v, want status 200 and events > 0", list.Traces[0])
	}

	// /v1/trace/{id} must round-trip as a Chrome-trace JSON array of
	// complete events, exactly as obs.EncodeChromeTrace writes it.
	hr, err := ts.Client().Get(ts.URL + "/v1/trace/" + list.Traces[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	data, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("trace get: HTTP %d: %s", hr.StatusCode, data)
	}
	var events []obs.TraceEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace body is not a Chrome-trace array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace has no events")
	}
	// One span per engine run: the request span ends after its trace is
	// retained, so the trace holds exactly the two engine spans.
	var names []string
	for _, e := range events {
		if e.Ph != "X" {
			t.Errorf("event %q has phase %q, want complete (X)", e.Name, e.Ph)
		}
		names = append(names, e.Name)
	}
	sort.Strings(names)
	if want := []string{"netcalc", "trajectory"}; !reflect.DeepEqual(names, want) {
		t.Errorf("request trace spans = %v, want %v", names, want)
	}
	var buf bytes.Buffer
	if err := obs.EncodeChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(data) {
		t.Error("trace body does not round-trip through the canonical encoding")
	}

	// Unknown id: 404 with the SRV012 vocabulary.
	hr2, err := ts.Client().Get(ts.URL + "/v1/trace/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer hr2.Body.Close()
	if hr2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: HTTP %d, want 404", hr2.StatusCode)
	}
	var eb ErrorBody
	if err := json.NewDecoder(hr2.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != CodeUnknownTrace {
		t.Errorf("unknown trace code = %s, want %s", eb.Error.Code, CodeUnknownTrace)
	}
}

// TestTraceRingEvictionConcurrent hammers one session from concurrent
// clients through a tiny ring (run with -race): the ring must end
// exactly full, every listed trace retrievable, capacity never
// exceeded.
func TestTraceRingEvictionConcurrent(t *testing.T) {
	const capacity = 4
	opts := testOptions()
	opts.TraceRing = oplog.NewRing(capacity)
	_, ts := newTestServer(t, opts)
	base := uploadSession(t, ts, 7, 8, "")

	const clients, rounds = 4, 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(DeltaRequest{Deltas: []string{"bag v0001 16"}})
			for i := 0; i < rounds; i++ {
				var resp AnalysisResponse
				if err := postJSON(ts.Client(), ts.URL+"/v1/sessions/"+base.Session+"/whatif", body, &resp); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := opts.TraceRing.Len(); got != capacity {
		t.Fatalf("ring length = %d, want full at capacity %d", got, capacity)
	}
	list := opts.TraceRing.List()
	if len(list) != capacity {
		t.Fatalf("list length = %d, want %d", len(list), capacity)
	}
	for _, s := range list {
		tr, ok := opts.TraceRing.Get(s.ID)
		if !ok {
			t.Errorf("listed trace %s not retrievable", s.ID)
			continue
		}
		if len(tr.Events) != s.Events {
			t.Errorf("trace %s: %d events, summary says %d", s.ID, len(tr.Events), s.Events)
		}
	}
}

// TestSSEProvenanceMatchesResponse pins the satellite: the SSE
// "analysis" event of a provenance-enabled round carries the identical
// provenance record its paired POST response does.
func TestSSEProvenanceMatchesResponse(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	base := uploadSession(t, ts, 7, 12, "&provenance=1")
	if base.Provenance == nil {
		t.Fatal("base response has no provenance despite ?provenance=1")
	}
	events, stop := sseClient(t, ts, base.Session)
	defer stop()

	body, _ := json.Marshal(DeltaRequest{Deltas: []string{"bag v0001 16"}})
	for _, verb := range []string{"whatif", "apply"} {
		var resp AnalysisResponse
		url := fmt.Sprintf("%s/v1/sessions/%s/%s?provenance=1", ts.URL, base.Session, verb)
		if err := postJSON(ts.Client(), url, body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Provenance == nil {
			t.Fatalf("%s response has no provenance", verb)
		}
		if resp.Provenance.ConfigFNV64 == "" || resp.Provenance.ObsVersion != oplog.Version {
			t.Errorf("%s provenance incomplete: %+v", verb, resp.Provenance)
		}
		ev := <-events
		if ev.Seq != resp.Seq {
			t.Fatalf("%s: SSE seq %d, response seq %d", verb, ev.Seq, resp.Seq)
		}
		if ev.Provenance == nil {
			t.Fatalf("%s: SSE event has no provenance", verb)
		}
		if !reflect.DeepEqual(ev.Provenance, resp.Provenance) {
			t.Errorf("%s: SSE provenance differs from response:\n%+v\nvs\n%+v",
				verb, ev.Provenance, resp.Provenance)
		}
		if !reflect.DeepEqual(ev.Paths, resp.Paths) {
			t.Errorf("%s: SSE bounds differ from response", verb)
		}
	}

	// A whatif and an apply of the same batch describe the same
	// configuration: their digests must agree, and both must differ
	// from the base (the batch changes a BAG).
	if base.Provenance.ConfigFNV64 == "" {
		t.Fatal("empty base digest")
	}
}

// TestProvenanceDigestSemantics pins what the digest covers: peeking a
// batch digests committed-state+batch (== the digest after committing
// the same batch), and provenance is absent without the query flag.
func TestProvenanceDigestSemantics(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	base := uploadSession(t, ts, 7, 12, "&provenance=1")

	body, _ := json.Marshal(DeltaRequest{Deltas: []string{"bag v0001 16"}})
	var peek, plain, commit AnalysisResponse
	if err := postJSON(ts.Client(), ts.URL+"/v1/sessions/"+base.Session+"/whatif?provenance=1", body, &peek); err != nil {
		t.Fatal(err)
	}
	if err := postJSON(ts.Client(), ts.URL+"/v1/sessions/"+base.Session+"/whatif", body, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Provenance != nil {
		t.Error("provenance present without ?provenance=1")
	}
	var raw json.RawMessage
	if err := postJSON(ts.Client(), ts.URL+"/v1/sessions/"+base.Session+"/apply?provenance=1", body, &raw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &commit); err != nil {
		t.Fatal(err)
	}
	if peek.Provenance.ConfigFNV64 != commit.Provenance.ConfigFNV64 {
		t.Errorf("peek digest %s != commit digest %s for the same batch",
			peek.Provenance.ConfigFNV64, commit.Provenance.ConfigFNV64)
	}
	if peek.Provenance.ConfigFNV64 == base.Provenance.ConfigFNV64 {
		t.Error("peek digest equals base digest; the batch changes the configuration")
	}
	if w := commit.Provenance.Workers; w != 1 {
		t.Errorf("workers = %d, want the session's parallel=1", w)
	}
	if commit.Provenance.Engines != "netcalc+trajectory" {
		t.Errorf("engines = %q", commit.Provenance.Engines)
	}
	// The record names no trajectory variant (one engine serves), and
	// its schema tag says so.
	var keys struct {
		Provenance map[string]any `json:"provenance"`
	}
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys.Provenance["trajectoryPath"]; ok || keys.Provenance["obsVersion"] != "oplog/3" {
		t.Errorf("provenance record %v: want no trajectoryPath key and obsVersion oplog/3", keys.Provenance)
	}
}

// TestMetricsContentNegotiation pins /v1/metrics serving JSON by
// default and valid Prometheus text under ?format=prometheus or an
// Accept header preferring text/plain.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	uploadSession(t, ts, 7, 8, "")

	// Default: the JSON snapshot.
	hr, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default Content-Type = %q", ct)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(hr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counter("serve_http_requests") == 0 {
		t.Error("JSON snapshot missing serve_http_requests")
	}

	for _, mode := range []struct {
		query  string
		accept string
	}{
		{query: "?format=prometheus"},
		{accept: "text/plain"},
		{accept: "application/openmetrics-text; version=1.0.0"},
	} {
		req, err := http.NewRequest("GET", ts.URL+"/v1/metrics"+mode.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if mode.accept != "" {
			req.Header.Set("Accept", mode.accept)
		}
		pr, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		text, err := io.ReadAll(pr.Body)
		pr.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := pr.Header.Get("Content-Type"); ct != oplog.PrometheusContentType {
			t.Errorf("%+v: Content-Type = %q", mode, ct)
		}
		if !bytes.Contains(text, []byte("# TYPE serve_http_requests counter")) ||
			!bytes.Contains(text, []byte(`serve_http_requests{class="deterministic"}`)) {
			t.Errorf("%+v: exposition missing the request counter:\n%.400s", mode, text)
		}
		if !bytes.Contains(text, []byte(`serve_request_duration_us_bucket{class="best-effort",le="+Inf"}`)) {
			t.Errorf("%+v: exposition missing the latency histogram buckets", mode)
		}
	}
}

// TestRequestLogSchema pins the structured log surface: one JSON
// record per HTTP request with the documented fields, one per applied
// delta, and a warn-level slow-request record when the threshold is
// set below the request latency.
func TestRequestLogSchema(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	lockedWriter := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	opts := testOptions()
	opts.Logger = slog.New(slog.NewJSONHandler(lockedWriter, nil))
	opts.SlowRequestUs = 1 // everything is slow
	_, ts := newTestServer(t, opts)
	base := uploadSession(t, ts, 7, 8, "")
	body, _ := json.Marshal(DeltaRequest{Deltas: []string{"bag v0001 16", "smax v0002 800"}})
	var resp AnalysisResponse
	if err := postJSON(ts.Client(), ts.URL+"/v1/sessions/"+base.Session+"/apply", body, &resp); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	var requests, deltas, slow int
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		switch rec["msg"] {
		case "request":
			requests++
			for _, key := range []string{"id", "method", "path", "status", "dur_us", "session"} {
				if _, ok := rec[key]; !ok {
					t.Errorf("request record missing %q: %s", key, line)
				}
			}
		case "delta applied":
			deltas++
			if rec["session"] != base.Session || rec["cmd"] == "" {
				t.Errorf("delta record = %s", line)
			}
		case "slow request":
			slow++
			if rec["level"] != "WARN" {
				t.Errorf("slow record level = %v", rec["level"])
			}
		}
	}
	if requests != 2 {
		t.Errorf("request records = %d, want 2 (upload + apply)", requests)
	}
	if deltas != 2 {
		t.Errorf("delta records = %d, want one per applied delta", deltas)
	}
	if slow != 2 {
		t.Errorf("slow records = %d, want 2 with a 1µs threshold", slow)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestSSEThroughMiddleware pins that the status-capturing middleware
// writer still exposes Flush: the SSE stream must work behind it.
func TestSSEThroughMiddleware(t *testing.T) {
	opts := testOptions()
	opts.TraceRing = oplog.NewRing(4)
	opts.Logger = oplog.Discard()
	_, ts := newTestServer(t, opts)
	base := uploadSession(t, ts, 7, 8, "")
	events, stop := sseClient(t, ts, base.Session)
	defer stop()
	body, _ := json.Marshal(DeltaRequest{Deltas: []string{"bag v0001 16"}})
	var resp AnalysisResponse
	if err := postJSON(ts.Client(), ts.URL+"/v1/sessions/"+base.Session+"/apply", body, &resp); err != nil {
		t.Fatal(err)
	}
	ev := <-events
	if ev.Seq != resp.Seq {
		t.Fatalf("SSE through middleware: seq %d, want %d", ev.Seq, resp.Seq)
	}
}
