package incremental

import (
	"context"
	"errors"
	"fmt"

	"afdx/internal/afdx"
	"afdx/internal/core"
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
// delta batch is re-validated, and the analysis every round runs.
type Options struct {
	Mode afdx.ValidationMode
	// Analysis analyses one round's port graph. Nil selects
	// core.Certify on all CPUs: the certified comparison, with one WCNC
	// run shared by both engines.
	Analysis func(ctx context.Context, pg *afdx.PortGraph) (*core.Comparison, error)
}

// DefaultOptions certifies every round under Strict validation.
func DefaultOptions() Options { return Options{Mode: afdx.Strict} }

// Session is the stateful what-if loop: it owns a private clone of a
// configuration and its port graph, re-validates and swaps them under
// Apply'd deltas, and analyses them cold on every round. Sessions are
// not safe for concurrent use; the analysis may still fan each round
// out over its own workers.
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
	if opts.Analysis == nil {
		opts.Analysis = certify
	}
	return &Session{opts: opts, net: clone, pg: pg}, nil
}

// certify is the default round analysis: core.Certify on all CPUs.
func certify(ctx context.Context, pg *afdx.PortGraph) (*core.Comparison, error) {
	return core.Certify(ctx, pg, 0)
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

// Analyze runs one round on the current configuration: a cold run of
// the session's analysis (by default core.Certify, one WCNC run shared
// by both engines). The Comparison carries both engine results. An
// analysis error (e.g. cancellation) leaves the session unchanged and
// usable.
func (s *Session) Analyze(ctx context.Context) (*core.Comparison, error) {
	if s.closed {
		return nil, ErrClosed
	}
	return s.opts.Analysis(ctx, s.pg)
}

// WhatIf is Peek plus the commit: one what-if step. The delta batch is
// applied to a scratch clone and analysed there, and the session swaps
// to the new configuration only when the analysis succeeds. A rejected
// batch (a *BadDeltaError, before any analysis runs) and a failed
// analysis (an engine error or a cancellation) both leave the session
// unchanged.
func (s *Session) WhatIf(ctx context.Context, deltas ...Delta) (*core.Comparison, error) {
	net, pg, err := s.candidate(deltas)
	if err != nil {
		return nil, err
	}
	cmp, err := s.opts.Analysis(ctx, pg)
	if err != nil {
		return nil, err
	}
	s.net, s.pg = net, pg
	return cmp, nil
}

// Peek is WhatIf without the commit: the deltas are applied to a
// scratch clone and analysed there, and the session keeps its
// configuration — the next Analyze sees the state from before the
// Peek. The serving layer's /whatif endpoint is this call.
func (s *Session) Peek(ctx context.Context, deltas ...Delta) (*core.Comparison, error) {
	_, pg, err := s.candidate(deltas)
	if err != nil {
		return nil, err
	}
	return s.opts.Analysis(ctx, pg)
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
