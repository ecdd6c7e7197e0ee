package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
)

// parityWorkers is the "N" of the parallel-1-vs-N served-conformance
// sweeps. Small enough for CI, large enough to exercise real fan-out.
const parityWorkers = 4

func testNet(t testing.TB, seed int64, vls int) *afdx.Network {
	t.Helper()
	spec := configgen.DefaultSpec(seed)
	spec.NumSwitches = 3
	spec.ESPerSwitch = 3
	spec.NumVLs = vls
	net, err := configgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// newTestServer starts a served-layer instance behind httptest with
// test-friendly limits. The returned Server allows direct pool
// manipulation (EvictIdle, Drain) next to the HTTP surface.
func newTestServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	return s, ts
}

// testOptions returns serving options for tests: no janitor, no SSE
// keepalives, and a generous timeout so loaded CI runners don't flake.
func testOptions() Options {
	return Options{
		Mode:           afdx.Strict,
		MaxSessions:    32,
		MaxBodyBytes:   8 << 20,
		RequestTimeout: time.Minute,
	}
}

// TestServedConformanceSeeded is the served-conformance tier's core
// case: a seeded 20-step script served over HTTP on a 120-VL
// configuration, with and without per-bound provenance, then every
// answer re-derived from cold engine runs — no server, no session —
// requiring exact == at worker counts 1 and N. Every 2xx body on the
// wire must also be encoding/json's indented encoding of the value it
// decodes to (wireCheck), byte for byte.
func TestServedConformanceSeeded(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	wc := &wireCheck{t: t, base: ts.Client().Transport, analyses: map[string]int{}}
	client := &http.Client{Transport: wc}
	net := testNet(t, 7, 120)
	for _, prov := range []bool{false, true} {
		script, err := SeededScript(net, 13, 20)
		if err != nil {
			t.Fatal(err)
		}
		if len(script.Steps) < 10 {
			t.Fatalf("seeded script too short: %d steps", len(script.Steps))
		}
		script.Provenance = prov
		if _, err := script.RunHTTP(client, ts.URL, 0); err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, parityWorkers} {
			mm, err := script.VerifyCold(context.Background(), afdx.Strict, par)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range mm {
				t.Errorf("provenance %v, parallel %d: %s", prov, par, m)
			}
		}
	}
	// Each script is an upload plus its steps; both ?analysis= names
	// occur among them.
	if wc.answers < 2*(1+10) || wc.analyses["WCNC"] == 0 || wc.analyses["FIFO"] == 0 {
		t.Fatalf("wire check saw %d answers, analyses %v", wc.answers, wc.analyses)
	}
}

// wireCheck is a RoundTripper that holds every 2xx answer to a POST
// (an upload, /whatif or /apply) to encoding/json: the body must be
// the indented encoding of the AnalysisResponse it decodes to.
type wireCheck struct {
	t        *testing.T
	base     http.RoundTripper
	answers  int
	analyses map[string]int
}

func (wc *wireCheck) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := wc.base.RoundTrip(req)
	if err != nil || req.Method != http.MethodPost || resp.StatusCode/100 != 2 {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var ar AnalysisResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		wc.t.Errorf("%s: 2xx body is not an AnalysisResponse: %v", req.URL, err)
		return resp, nil
	}
	if !bytes.Equal(body, indentedJSON(wc.t, &ar)) {
		wc.t.Errorf("%s: body is not encoding/json's encoding of its own value", req.URL)
	}
	if (ar.Provenance != nil) != (req.URL.Query().Get("provenance") == "1") {
		wc.t.Errorf("%s: provenance %v", req.URL, ar.Provenance)
	}
	wc.answers++
	wc.analyses[ar.Analysis]++
	return resp, nil
}

// TestSeededScriptDeterministic pins that the replay script is a pure
// function of (net, seed, n): the check.sh smoke and the conformance
// tier must replay identical traffic.
func TestSeededScriptDeterministic(t *testing.T) {
	net := testNet(t, 7, 24)
	a, err := SeededScript(net, 13, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SeededScript(net, 13, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Steps, b.Steps) {
		t.Fatalf("seeded script not deterministic:\n%v\nvs\n%v", a.Steps, b.Steps)
	}
}

// TestServedConformanceConcurrentClients runs 8 concurrent clients,
// each with its own session and its own seeded script, and verifies
// every client's full answer stream against cold anchors — the
// serialized-executor pool must keep concurrent sessions bit-faithful.
func TestServedConformanceConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	const clients = 8
	scripts := make([]*Script, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		net := testNet(t, int64(100+i), 16)
		sc, err := SeededScript(net, int64(i+1), 8)
		if err != nil {
			t.Fatal(err)
		}
		scripts[i] = sc
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Odd clients ask for parallel sessions, even for
			// sequential ones; the answers must not differ.
			_, errs[i] = scripts[i].RunHTTP(ts.Client(), ts.URL, i%2*parityWorkers)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i, sc := range scripts {
		for _, par := range []int{1, parityWorkers} {
			mm, err := sc.VerifyCold(context.Background(), afdx.Strict, par)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range mm {
				t.Errorf("client %d, parallel %d: %s", i, par, m)
			}
		}
	}
}

// TestEvictedThenRecreatedMatchesCold is the Session.Close regression
// pin: evict a session (returning its memory), recreate it from the
// same configuration, and require the recreated session's answers to
// be bit-identical to the first session's and to cold anchors.
func TestEvictedThenRecreatedMatchesCold(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	opts := testOptions()
	opts.Clock = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	srv, ts := newTestServer(t, opts)
	net := testNet(t, 7, 16)
	first, err := SeededScript(net, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	id, err := first.RunHTTP(ts.Client(), ts.URL, 0)
	if err != nil {
		t.Fatal(err)
	}

	advance(time.Hour)
	if n := srv.EvictIdle(30 * time.Minute); n != 1 {
		t.Fatalf("EvictIdle = %d, want 1", n)
	}
	// The evicted session is gone from the HTTP surface.
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions/"+id+"/whatif", "application/json",
		strings.NewReader(`{"deltas":["bag `+net.VLs[0].ID+` 128"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("post-eviction whatif: HTTP %d, want 404", resp.StatusCode)
	}

	// Recreate from the same configuration and replay the same script:
	// identical answers here plus VerifyCold pin the eviction as
	// semantically invisible.
	second := &Script{Net: net.Clone()}
	for _, st := range first.Steps {
		second.Steps = append(second.Steps, Step{Commit: st.Commit, Deltas: st.Deltas, Analysis: st.Analysis})
	}
	if _, err := second.RunHTTP(ts.Client(), ts.URL, 0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Base.Paths, second.Base.Paths) {
		t.Error("recreated session: base bounds differ from pre-eviction session")
	}
	for i := range first.Steps {
		if !reflect.DeepEqual(first.Steps[i].Response.Paths, second.Steps[i].Response.Paths) {
			t.Errorf("recreated session: step %d bounds differ from pre-eviction session", i)
		}
	}
	mm, err := second.VerifyCold(context.Background(), afdx.Strict, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mm {
		t.Errorf("recreated session: %s", m)
	}
}

// sseClient subscribes to a session's event feed and decodes "analysis"
// events into a channel.
func sseClient(t *testing.T, ts *httptest.Server, id string) (<-chan AnalysisEvent, func()) {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+"/v1/sessions/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("events: Content-Type %q", ct)
	}
	out := make(chan AnalysisEvent, 64)
	go func() {
		defer close(out)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var event string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && event == "analysis":
				var ev AnalysisEvent
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err == nil {
					out <- ev
				}
			}
		}
	}()
	return out, func() { resp.Body.Close() }
}

// TestSSEStreamMatchesResponses pins the SSE feed to the POST answers:
// every analysis round streams exactly the bounds the POST returned,
// plus deterministic counters only.
func TestSSEStreamMatchesResponses(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	net := testNet(t, 7, 16)
	script, err := SeededScript(net, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Round 0 happens at upload, before any subscriber exists; stream
	// the remaining rounds.
	id, err := (&Script{Net: net.Clone()}).RunHTTP(ts.Client(), ts.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	events, stop := sseClient(t, ts, id)
	defer stop()

	replay := &Script{Net: net.Clone(), Steps: script.Steps}
	replay.Base = &AnalysisResponse{} // skip re-upload: drive steps by hand
	for i := range replay.Steps {
		st := &replay.Steps[i]
		verb := "whatif"
		if st.Commit {
			verb = "apply"
		}
		body, _ := json.Marshal(DeltaRequest{Deltas: st.Deltas})
		var resp AnalysisResponse
		if err := postJSON(ts.Client(), fmt.Sprintf("%s/v1/sessions/%s/%s", ts.URL, id, verb), body, &resp); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		st.Response = &resp
	}
	for i := range replay.Steps {
		want := replay.Steps[i].Response
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("event stream closed before round %d", want.Seq)
			}
			if ev.Seq != want.Seq || ev.Committed != want.Committed {
				t.Fatalf("event %d: seq/committed = %d/%v, want %d/%v", i, ev.Seq, ev.Committed, want.Seq, want.Committed)
			}
			if !reflect.DeepEqual(ev.Paths, want.Paths) {
				t.Errorf("event for round %d: streamed bounds differ from POST response", want.Seq)
			}
			for name := range ev.Counters {
				if strings.Contains(name, "evicted") || strings.Contains(name, "dropped") {
					t.Errorf("event for round %d: best-effort counter %q on the stream", want.Seq, name)
				}
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out waiting for round %d event", want.Seq)
		}
	}
}

// TestSessionLifecycleHTTP covers list/info/delete plus health.
func TestSessionLifecycleHTTP(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	net := testNet(t, 7, 8)
	sc := &Script{Net: net}
	id, err := sc.RunHTTP(ts.Client(), ts.URL, 2)
	if err != nil {
		t.Fatal(err)
	}

	var list SessionList
	getJSON(t, ts, "/v1/sessions", &list)
	if len(list.Sessions) != 1 || list.Sessions[0].ID != id {
		t.Fatalf("list = %+v, want one session %q", list, id)
	}
	var info SessionInfo
	getJSON(t, ts, "/v1/sessions/"+id, &info)
	if info.Parallel != 2 || info.Seq != 1 || info.VLs != len(net.VLs) {
		t.Fatalf("info = %+v, want parallel=2 seq=1 vls=%d", info, len(net.VLs))
	}
	var h Health
	getJSON(t, ts, "/v1/healthz", &h)
	if h.Status != "ok" || h.Sessions != 1 || h.Draining {
		t.Fatalf("health = %+v", h)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/"+id, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: HTTP %d, want 204", resp.StatusCode)
	}
	getJSON(t, ts, "/v1/sessions", &list)
	if len(list.Sessions) != 0 {
		t.Fatalf("list after delete = %+v, want empty", list)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}
