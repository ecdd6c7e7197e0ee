package incremental_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/incremental"
)

// TestSessionClose pins the Close contract the serving layer's pool
// relies on: every method reports ErrClosed afterwards, Network goes
// nil, and Close is idempotent.
func TestSessionClose(t *testing.T) {
	net := testNet(t, 3, 8)
	s, err := incremental.NewSession(net, incremental.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Analyze(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if s.Network() != nil {
		t.Error("Network() non-nil after Close")
	}
	if _, err := s.Analyze(context.Background()); !errors.Is(err, incremental.ErrClosed) {
		t.Errorf("Analyze after Close: %v, want ErrClosed", err)
	}
	d := incremental.Delta{Op: incremental.OpRemoveVL, VL: net.VLs[0].ID}
	if err := s.Apply(d); !errors.Is(err, incremental.ErrClosed) {
		t.Errorf("Apply after Close: %v, want ErrClosed", err)
	}
	if _, err := s.WhatIf(context.Background(), d); !errors.Is(err, incremental.ErrClosed) {
		t.Errorf("WhatIf after Close: %v, want ErrClosed", err)
	}
	if _, err := s.Peek(context.Background(), d); !errors.Is(err, incremental.ErrClosed) {
		t.Errorf("Peek after Close: %v, want ErrClosed", err)
	}
}

// TestPeekDoesNotCommit pins Peek's restore semantics: the peeked
// bounds equal a committed WhatIf's on a twin session, the peeking
// session's next Analyze equals its base round, and a later commit of
// the same delta still matches the twin — the peek left no residue.
func TestPeekDoesNotCommit(t *testing.T) {
	ctx := context.Background()
	net := testNet(t, 3, 12)
	peeker, err := incremental.NewSession(net, incremental.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	twin, err := incremental.NewSession(net, incremental.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, err := peeker.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Analyze(ctx); err != nil {
		t.Fatal(err)
	}

	d := incremental.Delta{Op: incremental.OpSetBAG, VL: net.VLs[0].ID, BAGMs: net.VLs[0].BAGMs * 2}
	if net.VLs[0].BAGMs*2 > afdx.MaxBAGMs {
		d = incremental.Delta{Op: incremental.OpSetSMax, VL: net.VLs[0].ID, SMaxBytes: net.VLs[0].SMaxBytes / 2}
	}
	peeked, err := peeker.Peek(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := twin.WhatIf(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(peeked.NC.PathDelays, committed.NC.PathDelays) ||
		!reflect.DeepEqual(peeked.Trajectory.PathDelays, committed.Trajectory.PathDelays) {
		t.Error("peeked bounds differ from a committed WhatIf of the same delta")
	}
	after, err := peeker.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.NC.PathDelays, base.NC.PathDelays) ||
		!reflect.DeepEqual(after.Trajectory.PathDelays, base.Trajectory.PathDelays) {
		t.Error("Analyze after Peek differs from the base round: the peek committed state")
	}
	// The peek must leave no residue that a later commit could see.
	recommit, err := peeker.WhatIf(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recommit.NC.PathDelays, committed.NC.PathDelays) {
		t.Error("commit after Peek diverges from the twin session")
	}
	// A rejected peek leaves the session unchanged and reports the
	// rejection as a BadDeltaError.
	_, err = peeker.Peek(ctx, incremental.Delta{Op: incremental.OpRemoveVL, VL: "nosuchvl"})
	var bad *incremental.BadDeltaError
	if !errors.As(err, &bad) {
		t.Errorf("Peek of a bad delta: %v, want BadDeltaError", err)
	}
}

// TestPackageApply pins that the exported package-level Apply (used by
// cold replay harnesses) mutates a network exactly as a Session commit
// does.
func TestPackageApply(t *testing.T) {
	net := testNet(t, 3, 12)
	s, err := incremental.NewSession(net, incremental.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	deltas := []incremental.Delta{
		{Op: incremental.OpSetSMax, VL: net.VLs[0].ID, SMaxBytes: max(afdx.MinFrameBytes, net.VLs[0].SMaxBytes/2)},
		{Op: incremental.OpRemoveVL, VL: net.VLs[1].ID},
	}
	if err := s.Apply(deltas...); err != nil {
		t.Fatal(err)
	}
	direct := net.Clone()
	if err := incremental.Apply(direct, deltas...); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Network(), direct) {
		t.Error("package-level Apply result differs from Session.Apply")
	}
	if err := incremental.Apply(direct, incremental.Delta{Op: incremental.OpRemoveVL, VL: "nosuchvl"}); err == nil {
		t.Error("package-level Apply of an unknown VL: no error")
	}
}
