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
// delta batch is re-validated, and the engine option sets the cached
// analyses run under. A session's caches are bound to these options;
// change options by opening a new session.
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
// cold run on the session's current network would produce.
type Result struct {
	NC         *netcalc.Result
	Trajectory *trajectory.Result
	Comparison *core.Comparison
}

// Session is the stateful what-if loop: it owns a private clone of a
// configuration, re-validates and swaps it under Apply'd deltas, and
// Analyze serves unchanged ports and paths from the engines' incremental
// caches. Sessions are not safe for concurrent use (the caches are
// single-writer); Options.NC.Parallel / Options.Trajectory.Parallel
// still fan each individual analysis out, and results do not depend on
// those values.
type Session struct {
	opts   Options
	net    *afdx.Network
	pg     *afdx.PortGraph
	nc     *netcalc.Cache
	tr     *trajectory.Cache
	closed bool
}

// NewSession clones net (later deltas never touch the caller's value),
// validates it by building the port graph, and wires the engine caches.
// When the session's NC options match the trajectory engine's internal
// prefix run (netcalc defaults, any Parallel), both analyses share one
// per-port cache and the prefix run of Analyze is a pure cache hit.
func NewSession(net *afdx.Network, opts Options) (*Session, error) {
	clone := net.Clone()
	pg, err := afdx.BuildPortGraph(clone, opts.Mode)
	if err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	tr := trajectory.NewCache(opts.Trajectory)
	nc := netcalc.NewCache(opts.NC)
	norm := opts.NC
	norm.Parallel = 0
	if norm == netcalc.DefaultOptions() {
		nc = tr.PrefixNCCache()
	} else {
		// Distinct caches still fingerprint the same graphs: share the
		// per-graph memo so each round renders them once.
		nc.ShareGraphMemo(tr.PrefixNCCache())
	}
	return &Session{opts: opts, net: clone, pg: pg, nc: nc, tr: tr}, nil
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
// analysis round). Callers must treat it as read-only: the session's
// caches key off it.
func (s *Session) PortGraph() *afdx.PortGraph { return s.pg }

// Apply mutates the session's configuration by the given deltas, in
// order, as one atomic batch: the batch is applied to a scratch clone
// and re-validated, and only on success does the session swap to the
// new configuration. On error the session is unchanged; every rejection
// is reported as a *BadDeltaError.
func (s *Session) Apply(deltas ...Delta) error {
	if s.closed {
		return ErrClosed
	}
	cand := s.net.Clone()
	if err := Apply(cand, deltas...); err != nil {
		return &BadDeltaError{Err: err}
	}
	pg, err := afdx.BuildPortGraph(cand, s.opts.Mode)
	if err != nil {
		return &BadDeltaError{Err: fmt.Errorf("incremental: delta batch rejected: %w", err)}
	}
	s.net, s.pg = cand, pg
	return nil
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

// Analyze runs both engines over the current configuration through the
// session's caches and assembles the combined comparison. Ports and
// paths whose inputs are unchanged since the previous Analyze are
// served from cache; the result is bit-identical to a cold run. An
// analysis error (e.g. cancellation, instability after a delta) leaves
// the caches consistent — every stored entry is still keyed by its
// exact inputs — so the session remains usable.
func (s *Session) Analyze(ctx context.Context) (*Result, error) {
	if s.closed {
		return nil, ErrClosed
	}
	nc, err := netcalc.AnalyzeWithCacheCtx(ctx, s.pg, s.opts.NC, s.nc)
	if err != nil {
		return nil, fmt.Errorf("incremental: network calculus analysis: %w", err)
	}
	tr, err := trajectory.AnalyzeWithCacheCtx(ctx, s.pg, s.opts.Trajectory, s.tr)
	if err != nil {
		return nil, fmt.Errorf("incremental: trajectory analysis: %w", err)
	}
	cmp, err := core.Combine(s.pg, nc, tr)
	if err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	return &Result{NC: nc, Trajectory: tr, Comparison: cmp}, nil
}

// WhatIf is Apply + Analyze: one what-if step. The delta batch is
// atomic; if it is rejected, the session's configuration is unchanged
// and no analysis runs.
func (s *Session) WhatIf(ctx context.Context, deltas ...Delta) (*Result, error) {
	if err := s.Apply(deltas...); err != nil {
		return nil, err
	}
	return s.Analyze(ctx)
}

// Peek is WhatIf without the commit: the deltas are applied, the
// mutated configuration analysed through the session's caches, and the
// session's configuration restored — the next Analyze sees the state
// from before the Peek. The caches keep both variants' entries (each
// keyed by its exact inputs; the two-generation slots make the
// apply/restore alternation cheap), so peeking never degrades later
// rounds. The serving layer's /whatif endpoint is this call.
func (s *Session) Peek(ctx context.Context, deltas ...Delta) (*Result, error) {
	savedNet, savedPG := s.net, s.pg
	if err := s.Apply(deltas...); err != nil {
		return nil, err
	}
	res, err := s.Analyze(ctx)
	s.net, s.pg = savedNet, savedPG
	return res, err
}

// Close releases the session's configuration and both engine caches so
// a long-lived owner (the serving layer's session pool) can return the
// memory; every subsequent method reports ErrClosed. Close follows the
// session's single-writer discipline — do not race it with Analyze —
// and is idempotent. A new session over the same configuration starts
// cold and, by the incremental contract, still computes bit-identical
// bounds.
func (s *Session) Close() {
	s.closed = true
	s.net, s.pg, s.nc, s.tr = nil, nil, nil, nil
}
