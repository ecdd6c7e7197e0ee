package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"afdx/internal/afdx"
	"afdx/internal/core"
	"afdx/internal/diag"
	"afdx/internal/incremental"
)

// The serving layer's diagnostic codes, in the internal/diag vocabulary
// (stable machine-readable code + severity + message). Scripted clients
// key on these, not on the message text.
const (
	// CodeParse marks a request body that could not be decoded (config
	// upload or delta request JSON). HTTP 400.
	CodeParse diag.Code = "SRV001"
	// CodeLintRejected marks a configuration the lint pre-flight gate
	// refused — the served twin of afdx-bounds exit code 3. HTTP 422;
	// the error body carries the lint diagnostics.
	CodeLintRejected diag.Code = "SRV002"
	// CodeUnknownSession marks a session ID that does not exist (never
	// created, evicted, or closed). HTTP 404.
	CodeUnknownSession diag.Code = "SRV003"
	// CodeBodyTooLarge marks a request body over the server's limit.
	// HTTP 413.
	CodeBodyTooLarge diag.Code = "SRV004"
	// CodeBadDelta marks a delta command ParseDelta rejected. HTTP 400.
	CodeBadDelta diag.Code = "SRV005"
	// CodeDeltaRejected marks a parseable delta batch the session
	// refused (unknown VL, failed re-validation); the session is
	// unchanged. HTTP 422.
	CodeDeltaRejected diag.Code = "SRV006"
	// CodeDraining marks a request received during graceful shutdown.
	// HTTP 503.
	CodeDraining diag.Code = "SRV007"
	// CodePoolFull marks a session upload the bounded pool could not
	// place because every session is busy. HTTP 503.
	CodePoolFull diag.Code = "SRV008"
	// CodeTimeout marks a request abandoned by the per-request timeout;
	// an apply whose analysis still completes is committed and streamed
	// on the session's event feed, one cancelled mid-analysis leaves the
	// session unchanged. HTTP 504.
	CodeTimeout diag.Code = "SRV009"
	// CodeAnalysis marks an engine failure on a validated configuration
	// — the served twin of afdx-bounds exit code 1. HTTP 500.
	CodeAnalysis diag.Code = "SRV010"
	// CodeInvalidConfig marks an uploaded configuration that decoded
	// but failed structural validation with linting disabled (with the
	// gate on, SRV002 reports it first) or carried bad parameters
	// (e.g. a negative ?parallel). HTTP 400.
	CodeInvalidConfig diag.Code = "SRV011"
	// CodeUnknownTrace marks a /v1/trace/{id} lookup for a trace that
	// was never retained or has been evicted from the ring. HTTP 404.
	CodeUnknownTrace diag.Code = "SRV012"
	// CodeUnknownAnalysis marks an ?analysis= value other than WCNC or
	// FIFO (any case). HTTP 400.
	CodeUnknownAnalysis diag.Code = "SRV013"
)

// ErrorBody is the JSON error payload of every non-2xx response: one
// leading diagnostic plus, for lint rejections, the full finding list.
type ErrorBody struct {
	Error       diag.Diagnostic   `json:"error"`
	Diagnostics []diag.Diagnostic `json:"diagnostics,omitempty"`
}

// DeltaRequest is the body of POST /v1/sessions/{id}/whatif and /apply:
// delta commands in the ParseDelta syntax ("bag v1 16", "drop v5", ...),
// applied in order as one atomic batch.
type DeltaRequest struct {
	Deltas []string `json:"deltas"`
}

// PathBound is one path's served bounds — the same five figures an
// afdx-bounds run prints, as raw float64s. The answer writer renders
// each float64 as encoding/json does, in the shortest form that parses
// back to the identical bit pattern, so a decoded PathBound compares
// `==` against the engines' in-process values; the served-conformance
// tier relies on this.
type PathBound struct {
	Path         string  `json:"path"`
	NCUs         float64 `json:"ncUs"`
	TrajectoryUs float64 `json:"trajectoryUs"`
	BestUs       float64 `json:"bestUs"`
	MinUs        float64 `json:"minUs"`
	JitterUs     float64 `json:"jitterUs"`
}

// AnalysisResponse is one analysis round: the session, a per-session
// round number, whether the deltas were committed (apply) or peeked
// (whatif), the echoed ?analysis= name, and every path's bounds in
// (VL, path index) order. Provenance is present only when
// the request asked for it (?provenance=1).
type AnalysisResponse struct {
	Session   string   `json:"session"`
	Seq       int      `json:"seq"`
	Committed bool     `json:"committed"`
	Deltas    []string `json:"deltas,omitempty"`
	// Analysis echoes the request's ?analysis= name in canonical form
	// ("WCNC", the default, or "FIFO"). Both names get the same
	// bounds: the FIFO residual bound minimised exactly over theta is
	// the WCNC bound (DESIGN.md §14.1).
	Analysis   string      `json:"analysis"`
	Paths      []PathBound `json:"paths"`
	Provenance *Provenance `json:"provenance,omitempty"`
}

// Provenance is the audit record of one analysis round: enough to
// answer, after the fact, which configuration and engine variant
// produced these bounds. The digest is FNV-1a 64 over the canonical
// JSON of the exact configuration the bounds describe (for a peek:
// committed state plus the peeked batch — the same reconstruction
// VerifyCold anchors against); ObsVersion pins the record schema.
type Provenance struct {
	// ConfigFNV64 is the hex FNV-1a 64-bit digest of the analysed
	// configuration's canonical JSON.
	ConfigFNV64 string `json:"configFnv64"`
	// Engines names the bound producers ("netcalc+trajectory": both
	// engines run and the per-path best is served).
	Engines string `json:"engines"`
	// Analysis echoes the round's ?analysis= name ("WCNC" or "FIFO").
	Analysis string `json:"analysis"`
	// Workers is the session's resolved engine worker count: a session
	// opened for all CPUs records how many that was, never 0. Bounds do
	// not depend on it.
	Workers int `json:"workers"`
	// ObsVersion is the observability-layer schema tag (oplog.Version).
	ObsVersion string `json:"obsVersion"`
}

// AnalysisEvent is the SSE "analysis" event payload: the response every
// subscriber sees for each round, plus the server's Deterministic-class
// counter totals at publish time (engine work counts, served request
// counts).
type AnalysisEvent struct {
	AnalysisResponse
	Counters map[string]int64 `json:"counters,omitempty"`
}

// SessionInfo describes one live session.
type SessionInfo struct {
	ID    string `json:"id"`
	VLs   int    `json:"vls"`
	Paths int    `json:"paths"`
	// Parallel is the session's engine worker count (0 = all CPUs).
	// Bounds do not depend on it.
	Parallel int `json:"parallel"`
	// Seq counts analysis rounds served (base analysis = 0).
	Seq int `json:"seq"`
	// Applied counts committed deltas.
	Applied int `json:"appliedDeltas"`
	// IdleMs is the time since the session last served a request.
	IdleMs int64 `json:"idleMs"`
}

// SessionList is the GET /v1/sessions payload, sorted by ID.
type SessionList struct {
	Sessions []SessionInfo `json:"sessions"`
}

// Health is the GET /v1/healthz payload.
type Health struct {
	Status   string `json:"status"`
	Sessions int    `json:"sessions"`
	Draining bool   `json:"draining"`
}

// httpStatus maps a serve diagnostic code to its HTTP status — the
// served projection of the CLI exit-code contract (lint gate = 3 ↔ 422,
// usage/parse = 2 ↔ 400/404/413, analysis failure = 1 ↔ 500).
func httpStatus(code diag.Code) int {
	switch code {
	case CodeParse, CodeBadDelta, CodeInvalidConfig, CodeUnknownAnalysis:
		return http.StatusBadRequest
	case CodeLintRejected, CodeDeltaRejected:
		return http.StatusUnprocessableEntity
	case CodeUnknownSession, CodeUnknownTrace:
		return http.StatusNotFound
	case CodeBodyTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeDraining, CodePoolFull:
		return http.StatusServiceUnavailable
	case CodeTimeout:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// serveError is an error carrying its wire representation.
type serveError struct {
	code        diag.Code
	msg         string
	diagnostics []diag.Diagnostic
}

func (e *serveError) Error() string { return string(e.code) + ": " + e.msg }

func errf(code diag.Code, format string, args ...any) *serveError {
	return &serveError{code: code, msg: fmt.Sprintf(format, args...)}
}

// writeError renders any error as a diag-style JSON body. Errors that
// are not *serveError report as CodeAnalysis (HTTP 500).
func writeError(w http.ResponseWriter, err error) {
	se, ok := err.(*serveError)
	if !ok {
		se = &serveError{code: CodeAnalysis, msg: err.Error()}
	}
	body := ErrorBody{
		Error:       diag.Diagnostic{Code: se.code, Severity: diag.Error, Message: se.msg},
		Diagnostics: se.diagnostics,
	}
	writeJSON(w, httpStatus(se.code), body)
}

// newStrictDecoder decodes JSON rejecting unknown fields, so a typo'd
// request key fails loudly instead of silently doing nothing.
func newStrictDecoder(r io.Reader) *json.Decoder {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec
}

// writeJSON writes the small payloads (errors, session lists, health,
// metrics, traces) through encoding/json. Analysis rounds, the large
// ones, go through writeAnswer.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client went away; nothing to do
}

// pathBounds renders a comparison as the wire bound list, in canonical
// (VL, path index) order: the analysed network's VLs sorted by ID, each
// VL's paths by index — the afdx.SortPathIDs order, without sorting
// every path.
func pathBounds(cmp *core.Comparison) []PathBound {
	vls := slices.Clone(cmp.Net.VLs)
	slices.SortFunc(vls, func(a, b *afdx.VirtualLink) int { return strings.Compare(a.ID, b.ID) })
	out := make([]PathBound, 0, len(cmp.PerPath))
	for _, vl := range vls {
		for i := range vl.Paths {
			pid := afdx.PathID{VL: vl.ID, PathIdx: i}
			pc := cmp.PerPath[pid]
			out = append(out, PathBound{
				Path:         pid.String(),
				NCUs:         pc.NCUs,
				TrajectoryUs: pc.TrajectoryUs,
				BestUs:       pc.BestUs,
				MinUs:        pc.MinUs,
				JitterUs:     pc.JitterUs,
			})
		}
	}
	return out
}

// ParsePathID parses the wire path form "vl/idx" (PathID.String).
func ParsePathID(s string) (afdx.PathID, error) {
	i := strings.LastIndex(s, "/")
	if i <= 0 || i == len(s)-1 {
		return afdx.PathID{}, fmt.Errorf("serve: bad path id %q (want vl/index)", s)
	}
	idx, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return afdx.PathID{}, fmt.Errorf("serve: bad path id %q: %v", s, err)
	}
	return afdx.PathID{VL: s[:i], PathIdx: idx}, nil
}

// parseDeltas parses a delta request's commands, mapping failures to
// the wire vocabulary.
func parseDeltas(cmds []string) ([]incremental.Delta, error) {
	if len(cmds) == 0 {
		return nil, errf(CodeBadDelta, "empty delta batch")
	}
	out := make([]incremental.Delta, 0, len(cmds))
	for _, c := range cmds {
		d, err := incremental.ParseDelta(c)
		if err != nil {
			return nil, errf(CodeBadDelta, "%v", err)
		}
		out = append(out, d)
	}
	return out, nil
}
