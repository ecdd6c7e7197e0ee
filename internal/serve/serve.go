// Package serve is the analysis-as-a-service layer: a stdlib-only
// HTTP/JSON surface over what-if sessions (internal/incremental). A
// client uploads a configuration (lint pre-flight gated, exactly as
// afdx-bounds gates a cold run), receives a session ID, and POSTs
// ParseDelta-format delta batches to /whatif (peek, non-committing) or
// /apply (commit, only when the batch's analysis succeeds); each
// request returns the re-analysed per-path bounds. An SSE endpoint
// streams every analysis round plus the deterministic counter totals.
//
// Determinism contract for served answers: every bound a session
// returns is exactly `==` the bound a cold afdx-bounds run computes on
// the same configuration — the same guarantee the session pins,
// carried over the wire by the shortest-round-trip float64 form (the
// answer writer's, byte for byte encoding/json's) and enforced end to
// end by the served-conformance tier (replay.go and
// internal/conformance's served-parity invariant).
//
// Because incremental.Session is single-writer, each session is owned
// by one executor goroutine and requests are serialized in arrival
// order; concurrent clients on one session observe a total order of
// committed deltas. The pool is bounded with LRU idle eviction, bodies
// are size-capped, requests time-bounded, and Drain shuts the pool
// down gracefully.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"afdx/internal/afdx"
	"afdx/internal/core"
	"afdx/internal/incremental"
	"afdx/internal/lint"
	"afdx/internal/obs"
	"afdx/internal/obs/oplog"
)

// Options configures a Server. The zero value is usable; DefaultOptions
// fills in the production limits.
type Options struct {
	// Mode is the ARINC 664 contract validation mode sessions run
	// under (Strict unless set).
	Mode afdx.ValidationMode
	// NoLint disables the upload lint gate (afdx-bounds -no-lint).
	NoLint bool
	// Parallel is the default engine worker count for new sessions
	// (0 = all CPUs); a client overrides it per session with
	// ?parallel=N. Bounds do not depend on it.
	Parallel int
	// MaxSessions bounds the pool; a full pool evicts its LRU idle
	// session, and refuses the upload only when every session is
	// busy. 0 = unbounded.
	MaxSessions int
	// MaxBodyBytes caps request bodies. 0 = unlimited.
	MaxBodyBytes int64
	// RequestTimeout bounds each request end to end, queueing
	// included. 0 = unbounded.
	RequestTimeout time.Duration
	// IdleTimeout evicts sessions idle this long. 0 disables the
	// janitor (tests evict explicitly via EvictIdle).
	IdleTimeout time.Duration
	// KeepAlive is the SSE keepalive-comment interval (default 15s
	// under DefaultOptions; 0 disables).
	KeepAlive time.Duration
	// Registry receives the serving metrics and is threaded to the
	// engines of every request. nil = a fresh private registry.
	Registry *obs.Registry
	// Clock overrides time.Now for idle-eviction tests.
	Clock func() time.Time
	// Logger receives one structured record per HTTP request and per
	// applied delta. nil = logging off (records are discarded).
	Logger *slog.Logger
	// TraceRing retains completed request traces for /v1/trace; nil
	// disables per-request tracing and retention.
	TraceRing *oplog.Ring
	// SlowRequestUs is the slow-request log threshold in microseconds;
	// 0 = adaptive (live p99 of the latency histogram, 1ms floor).
	SlowRequestUs int64
}

// DefaultOptions returns the daemon's production limits.
func DefaultOptions() Options {
	return Options{
		Mode:           afdx.Strict,
		MaxSessions:    16,
		MaxBodyBytes:   8 << 20,
		RequestTimeout: 2 * time.Minute,
		IdleTimeout:    30 * time.Minute,
		KeepAlive:      15 * time.Second,
		TraceRing:      oplog.NewRing(256),
	}
}

// Server is the serving layer: the bounded session pool plus its HTTP
// surface. Create with New, mount Handler, stop with Drain.
type Server struct {
	opts    Options
	reg     *obs.Registry
	mgr     *manager
	log     *slog.Logger
	latency *obs.Histogram
	reqSeq  atomic.Int64
}

// New builds a Server. A nil-Registry option gets a private registry so
// the metrics endpoint always works; a nil-Logger option discards.
func New(opts Options) *Server {
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	log := opts.Logger
	if log == nil {
		log = oplog.Discard()
	}
	return &Server{
		opts: opts,
		reg:  reg,
		mgr:  newManager(opts, reg),
		log:  log,
		latency: reg.Histogram("serve_request_duration_us", obs.BestEffort,
			"HTTP request latency, µs (wall clock; slow-request threshold input)"),
	}
}

// Registry returns the server's metric registry (serving counters plus
// whatever the engines record during requests).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Drain stops accepting requests, waits out in-flight work, closes
// every session, and returns when the pool is down or ctx expires.
func (s *Server) Drain(ctx context.Context) error { return s.mgr.drain(ctx) }

// EvictIdle closes every session idle for at least olderThan and
// returns how many were evicted (the janitor's entry point, exported
// for tests and operational tooling).
func (s *Server) EvictIdle(olderThan time.Duration) int { return s.mgr.evictIdle(olderThan) }

// SessionCount returns the number of live sessions (the runtime
// sampler's session-pool occupancy gauge reads this).
func (s *Server) SessionCount() int {
	n, _ := s.mgr.size()
	return n
}

// Handler returns the server's HTTP surface:
//
//	POST   /v1/sessions              upload a configuration, open a session
//	GET    /v1/sessions              list live sessions
//	GET    /v1/sessions/{id}         one session's info
//	DELETE /v1/sessions/{id}         close a session
//	POST   /v1/sessions/{id}/whatif  peek a delta batch (non-committing)
//	POST   /v1/sessions/{id}/apply   commit a delta batch
//	GET    /v1/sessions/{id}/events  SSE stream of analysis rounds
//	GET    /v1/metrics               metric snapshot (JSON; Prometheus
//	                                 text via ?format=prometheus or
//	                                 Accept negotiation)
//	GET    /v1/trace                 retained request traces, newest first
//	GET    /v1/trace/{id}            one trace as Chrome-trace JSON
//	GET    /v1/healthz               liveness + pool size
//
// The POST routes accept ?provenance=1 to attach a per-bound
// provenance record to the response and its SSE event.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleInfo)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/whatif", func(w http.ResponseWriter, r *http.Request) {
		s.handleDeltas(w, r, false)
	})
	mux.HandleFunc("POST /v1/sessions/{id}/apply", func(w http.ResponseWriter, r *http.Request) {
		s.handleDeltas(w, r, true)
	})
	mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/trace", s.handleTraceList)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTraceGet)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	return s.observe(mux)
}

// body wraps the request body with the server's size cap.
func (s *Server) body(w http.ResponseWriter, r *http.Request) *http.Request {
	if s.opts.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	}
	return r
}

// analysisParam checks a request's ?analysis= parameter and returns
// the canonical name the response echoes: "WCNC" when absent, else
// WCNC or FIFO in any case. The engine computes one bound for both —
// the FIFO residual bound minimised exactly over theta is the WCNC
// bound (DESIGN.md §14.1) — so the name never reaches the engine.
// Anything else is CodeUnknownAnalysis, HTTP 400.
func analysisParam(r *http.Request) (string, error) {
	v := r.URL.Query().Get("analysis")
	if v == "" {
		return "WCNC", nil
	}
	switch a := strings.ToUpper(strings.TrimSpace(v)); a {
	case "WCNC", "FIFO":
		return a, nil
	}
	return "", errf(CodeUnknownAnalysis, "unknown analysis tier %q (want WCNC or FIFO)", v)
}

// decodeErr maps a body read/decode failure to the wire vocabulary.
func decodeErr(err error) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return errf(CodeBodyTooLarge, "request body over the %d-byte limit", tooBig.Limit)
	}
	return errf(CodeParse, "%v", err)
}

// handleCreate uploads a configuration: decode, lint-gate, open a
// pooled session, run the base analysis, and return round 0.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if _, draining := s.mgr.size(); draining {
		writeError(w, errf(CodeDraining, "server is draining"))
		return
	}
	r = s.body(w, r)
	analysis, err := analysisParam(r)
	if err != nil {
		writeError(w, err)
		return
	}
	parallel := s.opts.Parallel
	if v := r.URL.Query().Get("parallel"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, errf(CodeInvalidConfig, "bad parallel value %q (want a non-negative integer)", v))
			return
		}
		parallel = n
	}
	net, err := afdx.DecodeJSON(r.Body)
	if err != nil {
		writeError(w, decodeErr(err))
		return
	}
	if !s.opts.NoLint {
		lo := lint.DefaultOptions()
		lo.Mode = s.opts.Mode
		if rep := lint.Run(net, lo); rep.HasErrors() {
			writeError(w, &serveError{
				code:        CodeLintRejected,
				msg:         "infeasible configuration: " + strconv.Itoa(rep.Errors) + " lint error(s)",
				diagnostics: rep.Diagnostics,
			})
			return
		}
	}
	ms, err := s.mgr.create(net, parallel)
	if err != nil {
		writeError(w, err)
		return
	}
	out, err := s.mgr.submit(r.Context(), ms.id, s.analysisTask(false, nil, nil, wantProvenance(r), analysis))
	if err != nil {
		// A session whose base analysis failed holds no useful warm
		// state; close it so the client can retry cleanly.
		s.mgr.close(ms.id) //nolint:errcheck // already gone is fine
		writeError(w, err)
		return
	}
	writeAnswer(w, http.StatusCreated, out)
}

// handleDeltas serves /whatif (peek) and /apply (commit): parse the
// batch, run it on the session's executor, return the round's bounds.
func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request, commit bool) {
	r = s.body(w, r)
	analysis, err := analysisParam(r)
	if err != nil {
		writeError(w, err)
		return
	}
	var req DeltaRequest
	if err := decodeJSONBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	ds, err := parseDeltas(req.Deltas)
	if err != nil {
		writeError(w, err)
		return
	}
	out, err := s.mgr.submit(r.Context(), r.PathValue("id"), s.analysisTask(commit, req.Deltas, ds, wantProvenance(r), analysis))
	if err != nil {
		writeError(w, err)
		return
	}
	writeAnswer(w, http.StatusOK, out)
}

// decodeJSONBody strictly decodes one JSON value.
func decodeJSONBody(r *http.Request, v any) error {
	dec := newStrictDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		return decodeErr(err)
	}
	return nil
}

// analysisTask builds the executor closure of one analysis round: the
// base analysis (no deltas), a peek (/whatif), or a commit (/apply).
// analysis is the request's checked ?analysis= name, echoed in the
// response. It runs on the session's executor goroutine, so the
// Session calls are serialized by construction. With prov set the
// response carries the round's provenance record.
func (s *Server) analysisTask(commit bool, cmds []string, ds []incremental.Delta, prov bool, analysis string) func(ctx context.Context, sess *incremental.Session, ms *managed) (*AnalysisResponse, error) {
	return func(ctx context.Context, sess *incremental.Session, ms *managed) (*AnalysisResponse, error) {
		var cmp *core.Comparison
		var err error
		switch {
		case len(ds) == 0:
			cmp, err = sess.Analyze(ctx)
		case commit:
			cmp, err = sess.WhatIf(ctx, ds...)
		default:
			cmp, err = sess.Peek(ctx, ds...)
		}
		if err != nil {
			var bad *incremental.BadDeltaError
			switch {
			case errors.As(err, &bad):
				return nil, &serveError{code: CodeDeltaRejected, msg: bad.Error()}
			case ctx.Err() != nil:
				return nil, ctxErr(ctx)
			default:
				return nil, errf(CodeAnalysis, "%v", err)
			}
		}
		resp := &AnalysisResponse{
			Session:   ms.id,
			Committed: commit || len(ds) == 0,
			Deltas:    cmds,
			Analysis:  analysis,
			Paths:     pathBounds(cmp),
		}
		var workers int
		s.mgr.updateStats(ms, func(st *sessionStats) {
			resp.Seq = st.seq
			st.seq++
			if commit && len(ds) > 0 {
				st.applied += len(ds)
				st.vls = len(cmp.Net.VLs)
				st.paths = len(resp.Paths)
			}
			workers = st.parallel
		})
		if prov {
			resp.Provenance = s.provenance(cmp.Net, workers, analysis)
		}
		s.mgr.metrics.rounds.Inc()
		if commit {
			s.mgr.metrics.deltas.Add(int64(len(ds)))
			for _, cmd := range cmds {
				s.log.Info("delta applied", "session", ms.id, "seq", resp.Seq, "cmd", cmd)
			}
		}
		ms.hub.publish("analysis", func() [][]byte { return eventData(resp, countersMap(s.reg)) })
		return resp, nil
	}
}

// countersMap projects the registry's Deterministic-class counters for
// the SSE feed (BestEffort values stay off the stream so two replays
// of the same traffic produce comparable event sequences).
func countersMap(reg *obs.Registry) map[string]int64 {
	snap := reg.Snapshot().Deterministic()
	out := make(map[string]int64, len(snap.Counters))
	for _, c := range snap.Counters {
		out[c.Name] = c.Value
	}
	return out
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.list())
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info := s.mgr.info(id)
	if info == nil {
		writeError(w, errf(CodeUnknownSession, "unknown session %q", id))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.close(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleEvents attaches an SSE subscriber to a session's event hub.
// The stream opens with a "session" hello frame and then carries one
// "analysis" event per round (any client's), ending with "closed" when
// the session is deleted, evicted, or drained.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mgr.mu.Lock()
	ms := s.mgr.sessions[id]
	var h *hub
	var hello []byte
	if ms != nil && !ms.closing {
		h = ms.hub
		hello, _ = json.Marshal(s.mgr.infoLocked(ms))
	}
	s.mgr.mu.Unlock()
	if h == nil {
		writeError(w, errf(CodeUnknownSession, "unknown session %q", id))
		return
	}
	serveSSE(w, r, h, event{id: 0, name: "session", data: [][]byte{hello}}, s.opts.KeepAlive)
}

// handleMetrics serves the metric snapshot: JSON by default, the
// Prometheus text exposition format on ?format=prometheus or when the
// Accept header prefers text/plain or OpenMetrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", oplog.PrometheusContentType)
		w.WriteHeader(http.StatusOK)
		oplog.WritePrometheus(w, s.reg.Snapshot()) //nolint:errcheck // the client went away; nothing to do
		return
	}
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	n, draining := s.mgr.size()
	h := Health{Status: "ok", Sessions: n, Draining: draining}
	if draining {
		h.Status = "draining"
	}
	writeJSON(w, http.StatusOK, h)
}
