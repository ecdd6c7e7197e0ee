// Package oplog is the operational observability layer built on
// internal/obs: structured request logging (log/slog), bounded
// retention of completed request traces, Prometheus text exposition of
// a Registry snapshot, and a best-effort Go-runtime sampler.
//
// Like obs, oplog is strictly observation-only. Nothing in this
// package feeds back into analysis: loggers write to stderr or files
// (never stdout — every afdx CLI owns its stdout for machine-readable
// output), traces are retained copies of completed work, and every
// metric the runtime sampler registers is obs.BestEffort class so the
// Deterministic snapshot — the one the determinism tests DeepEqual —
// is unchanged whether sampling runs or not. detcheck's DET005 rule
// enforces the class discipline statically.
package oplog

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"os"
)

// Version identifies the observability-layer schema: the request-log
// field set, the RequestTrace shape, and the provenance record layout.
// It is stamped into provenance records so a retained bound can be
// decoded years later against the right schema.
const Version = "oplog/3"

// Sink resolves a log destination string to a writer:
//
//	""        → nil writer, logging off
//	"stderr"  → os.Stderr (Close is a no-op)
//	path      → the file at path, created or truncated
//
// "stdout" and "-" are refused: the afdx CLIs reserve stdout for
// machine-readable output (selfcheck JSON reports, the afdx-serve
// readiness line), so operational logs may never interleave there.
func Sink(dest string) (io.WriteCloser, error) {
	switch dest {
	case "":
		return nil, nil
	case "stderr":
		return nopCloser{os.Stderr}, nil
	case "stdout", "-":
		return nil, fmt.Errorf("oplog: stdout is reserved for machine-readable output; log to stderr or a file")
	default:
		f, err := os.Create(dest)
		if err != nil {
			return nil, fmt.Errorf("oplog: open log sink: %w", err)
		}
		return f, nil
	}
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// New builds a logger writing structured records to w: JSON handler
// when jsonFormat is set, the human-oriented text handler otherwise.
// A nil writer yields the discard logger, so callers can thread the
// result unconditionally.
func New(w io.Writer, jsonFormat bool) *slog.Logger {
	if w == nil {
		return Discard()
	}
	if jsonFormat {
		return slog.New(slog.NewJSONHandler(w, nil))
	}
	return slog.New(slog.NewTextHandler(w, nil))
}

// Discard returns a logger that drops every record without
// formatting it. Handlers receive no calls past Enabled, so a
// discarded log line costs one interface call.
func Discard() *slog.Logger { return slog.New(discardHandler{}) }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// FNV64 returns the FNV-1a 64-bit digest of data, hex-encoded. Used
// for provenance config digests: stable across runs and platforms,
// cheap enough to compute per analysis, and collision-resistant
// enough to distinguish network configurations in an audit trail.
func FNV64(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}
