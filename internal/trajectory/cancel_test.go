package trajectory

import (
	"context"
	"errors"
	"testing"

	"afdx/internal/afdx"
)

// An already-cancelled context must abort the analysis before (or
// promptly after) it starts, surfacing context.Canceled through the
// error chain — this pins the ExplainCtx/AnalyzeCtx cancellation paths
// and the poll points inside the candidate and busy-period loops.
func TestAnalyzeCtxAlreadyCancelled(t *testing.T) {
	pg := figure2Graph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeCtx(ctx, pg, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeCtx on cancelled context: got %v, want context.Canceled", err)
	}
}

func TestExplainCtxAlreadyCancelled(t *testing.T) {
	pg := figure2Graph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pid := afdx.PathID{VL: "v1", PathIdx: 0}
	if _, err := ExplainCtx(ctx, pg, pid, DefaultOptions(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExplainCtx on cancelled context: got %v, want context.Canceled", err)
	}
}

// Cancellation must not poison later runs: the same graph analysed with
// a live context right after a cancelled attempt yields the normal
// result.
func TestAnalyzeAfterCancelledAttempt(t *testing.T) {
	pg := figure2Graph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeCtx(ctx, pg, DefaultOptions()); err == nil {
		t.Fatal("cancelled AnalyzeCtx unexpectedly succeeded")
	}
	res, err := Analyze(pg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PathDelays[afdx.PathID{VL: "v1", PathIdx: 0}]; !almostEq(got, 248) {
		t.Fatalf("post-cancel analysis: v1/0 = %g, want 248", got)
	}
}
