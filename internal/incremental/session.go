package incremental

import (
	"context"
	"errors"
	"fmt"

	"afdx/internal/afdx"
	"afdx/internal/core"
	"afdx/internal/netcalc"
	"afdx/internal/trajectory"
)

// ErrClosed is returned by every Session method after Close.
var ErrClosed = errors.New("incremental: session closed")

// BadDeltaError marks a delta batch the session rejected — an unknown
// VL, a malformed mutation, or a batch whose result fails validation.
// The session is unchanged when it is returned. Transports use it to
// separate client mistakes (a bad request) from analysis failures.
type BadDeltaError struct{ Err error }

func (e *BadDeltaError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *BadDeltaError) Unwrap() error { return e.Err }

// Options configures a what-if Session: the validation mode used when a
// delta batch is re-validated, and the engine option sets every
// analysis round runs under.
type Options struct {
	Mode       afdx.ValidationMode
	NC         netcalc.Options
	Trajectory trajectory.Options
}

// DefaultOptions analyses with both engines' paper defaults under
// Strict validation.
func DefaultOptions() Options {
	return Options{
		Mode:       afdx.Strict,
		NC:         netcalc.DefaultOptions(),
		Trajectory: trajectory.DefaultOptions(),
	}
}

// Result carries one analysis round of a session: both engine results
// and the combined per-path comparison, each bit-identical to what a
// cold run on the analysed network would produce.
type Result struct {
	NC         *netcalc.Result
	Trajectory *trajectory.Result
	Comparison *core.Comparison
}

// Session is the stateful what-if loop: it owns a private clone of a
// configuration and its port graph, re-validates and swaps them under
// Apply'd deltas, and analyses them cold on every round. Sessions are
// not safe for concurrent use; Options.NC.Parallel /
// Options.Trajectory.Parallel still fan each individual analysis out,
// and results do not depend on those values.
type Session struct {
	opts   Options
	net    *afdx.Network
	pg     *afdx.PortGraph
	closed bool
}

// NewSession clones net (later deltas never touch the caller's value)
// and validates the clone by building its port graph.
func NewSession(net *afdx.Network, opts Options) (*Session, error) {
	clone := net.Clone()
	pg, err := afdx.BuildPortGraph(clone, opts.Mode)
	if err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	return &Session{opts: opts, net: clone, pg: pg}, nil
}

// Network returns a clone of the session's current configuration (with
// all applied deltas), e.g. for saving an accepted what-if scenario.
// Nil after Close.
func (s *Session) Network() *afdx.Network {
	if s.closed {
		return nil
	}
	return s.net.Clone()
}

// Options returns the option set the session was opened with.
func (s *Session) Options() Options { return s.opts }

// PortGraph returns the port-level view of the session's current
// configuration (e.g. for rendering per-path floors alongside an
// analysis round). Callers must treat it as read-only.
func (s *Session) PortGraph() *afdx.PortGraph { return s.pg }

// Apply mutates the session's configuration by the given deltas, in
// order, as one atomic batch: the batch is applied to a scratch clone
// and re-validated, and only on success does the session swap to the
// new configuration. On error the session is unchanged; every rejection
// is reported as a *BadDeltaError.
func (s *Session) Apply(deltas ...Delta) error {
	net, pg, err := s.candidate(deltas)
	if err != nil {
		return err
	}
	s.net, s.pg = net, pg
	return nil
}

// candidate applies a delta batch to a clone of the session's
// configuration and builds its port graph, leaving the session as it
// is.
func (s *Session) candidate(deltas []Delta) (*afdx.Network, *afdx.PortGraph, error) {
	if s.closed {
		return nil, nil, ErrClosed
	}
	cand := s.net.Clone()
	if err := Apply(cand, deltas...); err != nil {
		return nil, nil, &BadDeltaError{Err: err}
	}
	pg, err := afdx.BuildPortGraph(cand, s.opts.Mode)
	if err != nil {
		return nil, nil, &BadDeltaError{Err: fmt.Errorf("incremental: delta batch rejected: %w", err)}
	}
	return cand, pg, nil
}

// Apply mutates a network in place by the given deltas, in order,
// without re-validating the result — the caller owns validation (the
// Session method applies to a clone and rebuilds the port graph; cold
// replay harnesses rebuild their own graph). On error the network may
// be partially mutated; apply to a scratch clone when that matters.
func Apply(n *afdx.Network, deltas ...Delta) error {
	for _, d := range deltas {
		if err := applyDelta(n, d); err != nil {
			return err
		}
	}
	return nil
}

// Analyze runs both engines over the current configuration and
// assembles the combined comparison. The WCNC result also supplies the
// trajectory engine's S_max prefix bounds when the session's NC options
// are the defaults (trajectory.AnalyzeWithNCCtx), so a round runs WCNC
// once. An analysis error (e.g. cancellation) leaves the session
// unchanged and usable.
func (s *Session) Analyze(ctx context.Context) (*Result, error) {
	if s.closed {
		return nil, ErrClosed
	}
	return s.analyze(ctx, s.pg)
}

// analyze runs one round on pg: WCNC, the trajectory engine on the
// WCNC run's prefix bounds, and the combined comparison.
func (s *Session) analyze(ctx context.Context, pg *afdx.PortGraph) (*Result, error) {
	nc, err := netcalc.AnalyzeCtx(ctx, pg, s.opts.NC)
	if err != nil {
		return nil, fmt.Errorf("incremental: network calculus analysis: %w", err)
	}
	tr, err := trajectory.AnalyzeWithNCCtx(ctx, pg, s.opts.Trajectory, nc)
	if err != nil {
		return nil, fmt.Errorf("incremental: trajectory analysis: %w", err)
	}
	cmp, err := core.Combine(pg, nc, tr)
	if err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	return &Result{NC: nc, Trajectory: tr, Comparison: cmp}, nil
}

// WhatIf is Peek plus the commit: one what-if step. The delta batch is
// applied to a scratch clone and analysed there, and the session swaps
// to the new configuration only when the analysis succeeds. A rejected
// batch (a *BadDeltaError, before any analysis runs) and a failed
// analysis (an engine error or a cancellation) both leave the session
// unchanged.
func (s *Session) WhatIf(ctx context.Context, deltas ...Delta) (*Result, error) {
	net, pg, err := s.candidate(deltas)
	if err != nil {
		return nil, err
	}
	res, err := s.analyze(ctx, pg)
	if err != nil {
		return nil, err
	}
	s.net, s.pg = net, pg
	return res, nil
}

// Peek is WhatIf without the commit: the deltas are applied to a
// scratch clone and analysed there, and the session keeps its
// configuration — the next Analyze sees the state from before the
// Peek. The serving layer's /whatif endpoint is this call.
func (s *Session) Peek(ctx context.Context, deltas ...Delta) (*Result, error) {
	_, pg, err := s.candidate(deltas)
	if err != nil {
		return nil, err
	}
	return s.analyze(ctx, pg)
}

// Close releases the session's configuration so a long-lived owner
// (the serving layer's session pool) can return the memory; every
// subsequent method reports ErrClosed. Close follows the session's
// single-writer discipline — do not race it with Analyze — and is
// idempotent.
func (s *Session) Close() {
	s.closed = true
	s.net, s.pg = nil, nil
}
