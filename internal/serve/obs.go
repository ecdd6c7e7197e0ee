package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"afdx/internal/afdx"
	"afdx/internal/obs"
	"afdx/internal/obs/oplog"
	"afdx/internal/parallel"
)

// This file is the serving layer's operational-observability surface:
// the request middleware (correlation ids, structured log lines, the
// latency histogram, slow-request detection, trace retention), the
// /v1/trace endpoints, the Prometheus content negotiation on
// /v1/metrics, and the per-bound provenance record. Everything here is
// observation-only — bounds, Deterministic-class counters, and the
// served-conformance replay are bit-identical with the whole layer on
// or off (obs_determinism_test pins this).

// slowFloorUs floors the adaptive slow-request threshold: below the
// first thousand microseconds a "slow" label carries no signal.
const slowFloorUs = 1000

// observe wraps the HTTP mux with the request middleware. Each request
// gets a correlation id ("r1", "r2", ... in arrival order), a status-
// capturing writer, and — when trace retention is on — a private span
// tracer on its context; the session executor threads that context to
// the engines, so every engine span of the request lands in its trace.
// On completion the middleware observes the latency histogram, emits
// one structured log line, flags requests over the slow threshold, and
// retains the completed trace in the ring.
func (s *Server) observe(mux http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mgr.metrics.requests.Inc()
		id := "r" + strconv.FormatInt(s.reqSeq.Add(1), 10)
		var tracer *obs.Tracer
		if s.opts.TraceRing != nil {
			tracer = obs.NewTracer()
			ctx, span := obs.StartSpan(obs.WithTracer(r.Context(), tracer), "http:"+r.Method+" "+r.URL.Path)
			defer span.End()
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		mux.ServeHTTP(sw, r)
		durUs := time.Since(start).Microseconds()
		s.latency.Observe(durUs)
		session := sessionFromPath(r.URL.Path)
		s.log.Info("request",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"session", session,
			"status", sw.code(),
			"dur_us", durUs,
		)
		if limit := s.slowThresholdUs(); durUs > limit {
			s.log.Warn("slow request",
				"id", id,
				"method", r.Method,
				"path", r.URL.Path,
				"session", session,
				"dur_us", durUs,
				"threshold_us", limit,
			)
		}
		if tracer != nil {
			s.opts.TraceRing.Add(oplog.RequestTrace{
				ID:      id,
				Method:  r.Method,
				Path:    r.URL.Path,
				Session: session,
				Status:  sw.code(),
				DurUs:   durUs,
				Events:  tracer.Events(),
			})
		}
	})
}

// slowThresholdUs resolves the slow-request threshold: the configured
// value, or — when unset — the live p99 of the request-latency
// histogram floored at one millisecond, so the log adapts to the
// workload without configuration.
func (s *Server) slowThresholdUs() int64 {
	if s.opts.SlowRequestUs > 0 {
		return s.opts.SlowRequestUs
	}
	limit := s.latency.Quantile(0.99)
	if limit < slowFloorUs {
		limit = slowFloorUs
	}
	return limit
}

// statusWriter records the response status while passing Flush through,
// so SSE streaming keeps working behind the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// code returns the recorded status, defaulting to 200 for handlers
// that never called WriteHeader.
func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// sessionFromPath extracts the session id from a /v1/sessions/{id}...
// request path, or "" for non-session routes.
func sessionFromPath(path string) string {
	const prefix = "/v1/sessions/"
	if !strings.HasPrefix(path, prefix) {
		return ""
	}
	rest := path[len(prefix):]
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// TraceList is the GET /v1/trace payload: retained request traces,
// newest first.
type TraceList struct {
	Traces []oplog.TraceSummary `json:"traces"`
}

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	list := s.opts.TraceRing.List()
	if list == nil {
		list = []oplog.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, TraceList{Traces: list})
}

// handleTraceGet serves one retained trace as a Chrome-trace JSON
// array — the repository's canonical trace encoding, loadable in
// chrome://tracing and byte-compatible with afdx CLI -tracefile
// output.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.opts.TraceRing.Get(id)
	if !ok {
		writeError(w, errf(CodeUnknownTrace, "unknown or evicted trace %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	obs.EncodeChromeTrace(w, tr.Events) //nolint:errcheck // the client went away; nothing to do
}

// wantsPrometheus reports whether a /v1/metrics request asked for the
// text exposition format: ?format=prometheus, or an Accept header
// preferring text/plain or OpenMetrics over JSON (a plain browser
// `*/*` keeps the JSON snapshot).
func wantsPrometheus(r *http.Request) bool {
	if f := r.URL.Query().Get("format"); f != "" {
		return f == "prometheus"
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// provenance assembles the audit record of one analysis round. The
// digest covers the exact configuration the bounds describe: the
// network the round analysed, which for a peek is the candidate the
// batch was applied to and otherwise the session's committed state.
func (s *Server) provenance(net *afdx.Network, workers int, analysis string) *Provenance {
	data, err := json.Marshal(net)
	if err != nil {
		return nil
	}
	return &Provenance{
		ConfigFNV64: oplog.FNV64(data),
		Engines:     "netcalc+trajectory",
		Analysis:    analysis,
		// The audit record carries the resolved worker count (<= 0 is
		// the "all cores" sentinel, useless to an auditor).
		Workers:    parallel.Workers(workers),
		ObsVersion: oplog.Version,
	}
}

// wantProvenance reports whether the request opted into the provenance
// record (?provenance=1).
func wantProvenance(r *http.Request) bool {
	switch r.URL.Query().Get("provenance") {
	case "1", "true":
		return true
	}
	return false
}
