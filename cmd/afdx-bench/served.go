package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"time"

	"afdx/internal/afdx"
	"afdx/internal/incremental"
	"afdx/internal/obs"
	"afdx/internal/obs/oplog"
	"afdx/internal/serve"
)

// Served-workload constants.
const (
	// uploads is how many timed session uploads set-up makes, after one
	// untimed upload that lets the process meet the configuration once;
	// their median round trip is setup_s. Single uploads vary by about
	// 10 %; the median of 15 halves the run-to-run spread that the
	// median of 5 showed.
	uploads = 15
	// warmups is the number of untimed ops before the timed phase.
	warmups = 3
)

// served is whatif-peek (analysis "") and whatif-fifo ("FIFO"): fresh
// single-delta /whatif peeks against one warm session on the industrial
// configuration, over loopback HTTP against an in-process serve.Server
// built from serve.DefaultOptions() — the daemon's defaults, trace ring
// included — with Parallel=2. One closed loop client issues every op.
type served struct {
	scale    scale
	seed     int64
	analysis string // ?analysis= tier of every op ("" = the WCNC default)

	base      *afdx.Network // the session's configuration; peeks never change it
	qs        [][]string    // the question stream, asked in order
	paths     int           // path count every answer must carry
	srv       *serve.Server
	ring      *oplog.Ring
	hs        *http.Server
	serveDone chan struct{}
	tr        *http.Transport
	hc        *http.Client
	baseURL   string
	session   string
	script    *serve.Script
	n         int // ops issued, warm-ups included
	buf       bytes.Buffer
}

func newPeeks(sc scale, seed int64, analysis string) *served {
	return &served{scale: sc, seed: seed, analysis: analysis}
}

func (s *served) setup(ctx context.Context) ([]time.Duration, error) {
	var err error
	if s.base, err = s.scale.whatif(); err != nil {
		return nil, err
	}
	if s.qs = questions(s.base, s.seed); len(s.qs) == 0 {
		return nil, fmt.Errorf("configuration has no legal tightening")
	}
	s.paths = len(s.base.AllPaths())
	s.script = &serve.Script{Net: s.base.Clone()}

	opts := serve.DefaultOptions()
	opts.Parallel = workers
	s.ring = opts.TraceRing
	s.srv = serve.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.serveDone = make(chan struct{})
	go func() {
		defer close(s.serveDone)
		s.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed once close shuts it down
	}()
	s.baseURL = "http://" + ln.Addr().String()
	s.tr = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	s.hc = &http.Client{Transport: s.tr}

	cfg, err := json.Marshal(s.base)
	if err != nil {
		return nil, err
	}
	// Every upload but the last is deleted at once; the last one's
	// session serves the workload.
	var times []time.Duration
	for u := 0; u <= uploads; u++ {
		rt, status, err := s.post(s.baseURL+"/v1/sessions", cfg)
		if err != nil {
			return nil, fmt.Errorf("upload: %w", err)
		}
		resp := &serve.AnalysisResponse{}
		if err := s.answer(status, http.StatusCreated, s.paths, resp); err != nil {
			return nil, fmt.Errorf("upload: %w", err)
		}
		if u > 0 {
			times = append(times, rt)
		}
		if u < uploads {
			if err := s.deleteSession(resp.Session); err != nil {
				return nil, err
			}
			continue
		}
		s.session, s.script.Base = resp.Session, resp
	}
	for i := 0; i < warmups; i++ {
		if r := s.op(ctx, false); r.failed {
			return nil, fmt.Errorf("warm-up op %d failed", i)
		}
	}
	return times, nil
}

// post sends one request body and reads the whole answer into s.buf;
// the returned duration is the client round trip.
func (s *served) post(url string, body []byte) (time.Duration, int, error) {
	start := time.Now()
	resp, err := s.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	s.buf.Reset()
	_, err = s.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return time.Since(start), resp.StatusCode, err
}

// answer checks the status and path count of the answer in s.buf and
// decodes it into resp.
func (s *served) answer(status, want, wantPaths int, resp *serve.AnalysisResponse) error {
	if status != want {
		return fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(s.buf.Bytes()))
	}
	if err := json.Unmarshal(s.buf.Bytes(), resp); err != nil {
		return err
	}
	if len(resp.Paths) != wantPaths {
		return fmt.Errorf("answer carries %d paths, want %d", len(resp.Paths), wantPaths)
	}
	return nil
}

func (s *served) deleteSession(id string) error {
	req, err := http.NewRequest(http.MethodDelete, s.baseURL+"/v1/sessions/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("DELETE session %s: HTTP %d", id, resp.StatusCode)
	}
	return nil
}

// sampled reports whether op n's answer is kept for the cold replay:
// every warm-up, then timed ops 1, 2, 4, 8, ... — about a dozen rounds
// spread over the whole run, whatever its length.
func sampled(n int) bool {
	t := n - warmups + 1
	return t <= 0 || t&(t-1) == 0
}

func (s *served) op(ctx context.Context, traced bool) opResult {
	batch := s.qs[s.n%len(s.qs)]
	q := ""
	if s.analysis != "" {
		q = "?analysis=" + s.analysis
	}
	body, err := json.Marshal(serve.DeltaRequest{Deltas: batch})
	if err != nil {
		return opResult{failed: true}
	}
	url := s.baseURL + "/v1/sessions/" + s.session + "/whatif" + q

	rt, status, err := s.post(url, body)
	r := opResult{latency: rt}
	var resp serve.AnalysisResponse
	if err == nil {
		err = s.answer(status, http.StatusOK, s.paths, &resp)
	}
	r.failed = err != nil
	step := serve.Step{Deltas: batch, Analysis: s.analysis}
	if sampled(s.n) && !r.failed {
		step.Response = &resp
	}
	s.script.Steps = append(s.script.Steps, step)
	s.n++
	if traced && !r.failed {
		s.traceOp(&r, batch, &resp)
	}
	return r
}

// traceOp fills a traced op's layer metrics: the server's own spans for
// the request, from the trace ring, split by layer; the transport share
// (round trip minus handler); and, timed out of band on the op's batch,
// the stages the handler runs without a span of their own — the
// session's clone of its configuration, the delta apply, the port-graph
// rebuild, and the indented JSON encoding of the answer.
func (s *served) traceOp(r *opResult, batch []string, resp *serve.AnalysisResponse) {
	r.layers = map[string]float64{"serve.resp_kib": float64(s.buf.Len()) / 1024}
	list := s.ring.List()
	if len(list) == 0 || list[0].Path != "/v1/sessions/"+s.session+"/whatif" {
		r.failed = true
		return
	}
	tr, ok := s.ring.Get(list[0].ID)
	if !ok {
		r.failed = true
		return
	}
	// The ring holds the engine spans, timed from the middleware's start;
	// the request's own span ends after the trace is retained, so the
	// handler time is the middleware's measured duration and the serve
	// layer's self time is what the engine spans leave of it.
	rtUs, handlerUs := r.latency.Microseconds(), tr.DurUs
	parts := partition(tr.Events)
	nc, traj := float64(parts["netcalc"])/1e3, float64(parts["trajectory"])/1e3
	handler, transport := float64(handlerUs)/1e3, float64(rtUs-handlerUs)/1e3
	r.layers["netcalc.self_ms"] = nc
	r.layers["trajectory.self_ms"] = traj
	self := handler - nc - traj
	r.layers["serve.self_ms"] = self
	r.layers["serve.handler_ms"] = handler
	r.layers["serve.transport_ms"] = transport
	// Engine spans that overrun the handler, or a handler that overruns
	// the round trip, show up as a sum error.
	r.inSum = nc + traj + math.Max(self, 0) + math.Max(transport, 0)

	// The benchmark's side of the timeline: the round trip, then the
	// out-of-band stages. The server's spans sit centred in the round
	// trip (the two clocks share no epoch).
	r.events = []obs.TraceEvent{event("bench.op", 0, rtUs, 1)}
	r.outOfBand = map[string]float64{}
	at := rtUs
	oob := func(name string, f func() error) {
		start := time.Now()
		err := f()
		d := time.Since(start)
		r.outOfBand[name+"_ms"] = float64(d) / 1e6
		r.events = append(r.events, event(name, at, d.Microseconds(), 1))
		at += d.Microseconds()
		if err != nil {
			r.failed = true
		}
	}
	var clone *afdx.Network
	var ds []incremental.Delta
	oob("afdx.clone", func() error { clone = s.base.Clone(); return nil })
	oob("incremental.apply", func() error {
		for _, c := range batch {
			d, err := incremental.ParseDelta(c)
			if err != nil {
				return err
			}
			ds = append(ds, d)
		}
		return incremental.Apply(clone, ds...)
	})
	oob("afdx.build", func() error { _, err := afdx.BuildPortGraph(clone, afdx.Strict); return err })
	oob("serve.encode", func() error {
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		enc.SetIndent("", "  ")
		return enc.Encode(resp)
	})
	server := shiftEvents(append([]obs.TraceEvent{event("http:POST "+tr.Path, 0, handlerUs, 2)}, tr.Events...), (rtUs-handlerUs)/2)
	for i := range server {
		server[i].Pid = 2
	}
	r.events = append(r.events, server...)
}

func (s *served) registry() *obs.Registry { return s.srv.Registry() }

// finish measures the session's heap — post-GC heap with the session
// open, minus the same once DELETE has torn it down (the end of the
// session's SSE stream is the signal that the executor released it) —
// and then replays the recorded script through cold engine runs.
//
// The trace ring is first filled with health-check traces. Otherwise
// the DELETE's own traces would evict retained analysis traces, each
// hundreds of KiB, and the heap difference would count them as session
// memory.
func (s *served) finish(ctx context.Context) (float64, int, error) {
	sub, err := s.subscribe(ctx)
	if err != nil {
		return 0, 0, err
	}
	defer sub.wait(0) //nolint:errcheck // the stream has ended or is cut here
	for i := 0; i < 1024 && !onlyHealthTraces(s.ring.List()); i++ {
		resp, err := s.hc.Get(s.baseURL + "/v1/healthz")
		if err != nil {
			return 0, 0, err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
		resp.Body.Close()
	}
	with := liveHeap()
	if err := s.deleteSession(s.session); err != nil {
		return 0, 0, err
	}
	if err := sub.wait(30 * time.Second); err != nil {
		return 0, 0, err
	}
	without := liveHeap()
	failures := 0
	if !sub.closed {
		failures++
	}
	mm, err := s.script.VerifyCold(ctx, afdx.Strict, 1)
	if err != nil {
		return 0, 0, fmt.Errorf("cold replay: %w", err)
	}
	return heapMiB(with, without), failures + len(mm), nil
}

func onlyHealthTraces(list []oplog.TraceSummary) bool {
	for _, tr := range list {
		if tr.Path != "/v1/healthz" {
			return false
		}
	}
	return true
}

// close drains the server, shuts the listener down and waits for the
// serving goroutine to end.
func (s *served) close() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Drain(ctx)   //nolint:errcheck // teardown; every session is already closed
	s.hs.Shutdown(ctx) //nolint:errcheck // teardown
	<-s.serveDone
	s.tr.CloseIdleConnections()
}

// subscriber drains one session's SSE feed until the session's
// "closed" event ends it.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}
	// Written by the reading goroutine; read after done is closed.
	closed bool // the "closed" event arrived
	err    error
}

// subscribe opens the session's event stream and returns once the
// hello frame has arrived, so every later event is on the stream.
func (s *served) subscribe(ctx context.Context) (*subscriber, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.baseURL+"/v1/sessions/"+s.session+"/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	if name, err := readFrame(br); err != nil || name != "session" {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("events: no hello frame (%q, %v)", name, err)
	}
	sub := &subscriber{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(sub.done)
		defer resp.Body.Close()
		sub.read(br)
	}()
	return sub, nil
}

func (sub *subscriber) read(br *bufio.Reader) {
	for {
		name, err := readFrame(br)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				sub.err = err
			}
			return
		}
		if name == "closed" {
			sub.closed = true
		}
	}
}

// wait waits up to timeout for the stream to end, then cuts it.
func (sub *subscriber) wait(timeout time.Duration) error {
	if timeout > 0 {
		select {
		case <-sub.done:
			return sub.err
		case <-time.After(timeout):
		}
	}
	sub.cancel()
	<-sub.done
	if timeout > 0 {
		return fmt.Errorf("events: stream still open after %v", timeout)
	}
	return nil
}

// readFrame reads one SSE frame and returns its event name. Data lines
// are skipped without being copied; keepalive comments are ignored.
func readFrame(br *bufio.Reader) (string, error) {
	var name string
	seen := false
	for {
		// ReadSlice's result is only valid until the next read, so the
		// line is classified before a long one is drained.
		line, err := br.ReadSlice('\n')
		if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
			return "", err
		}
		end := false
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			name, seen = string(bytes.TrimSpace(line[7:])), true
		case bytes.HasPrefix(line, []byte("id: ")), bytes.HasPrefix(line, []byte("data: ")):
			seen = true
		case len(bytes.TrimSpace(line)) == 0:
			end = seen
		}
		for errors.Is(err, bufio.ErrBufferFull) {
			_, err = br.ReadSlice('\n')
		}
		if err != nil {
			return "", err
		}
		if end {
			return name, nil
		}
	}
}
