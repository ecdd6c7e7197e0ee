//go:build !race

package trajectory_test

import (
	"testing"

	"afdx/internal/core/tol"
	"afdx/internal/netcalc"
	"afdx/internal/trajectory"
)

// The full-size tier of oracle_test.go, compiled out under the race
// detector and skipped in -short mode.

// TestFlatMatchesReferenceConfiggenFull extends the generated sweep to
// configgen seeds 11–100 at 60 VLs, grouped and ungrouped.
func TestFlatMatchesReferenceConfiggenFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep skipped in -short mode")
	}
	sweep(t, configgenCorpus(t, 11, 100), variants[:2], "0xf9a75ce51651be21", "0xa2f34ba8425d7d45")
}

// TestObjectivePointsReachGridFull is the completeness argument for
// the evaluator's points: on configgen seed 2 at 120 VLs a 2,001-point
// grid over the busy period never beats their maximum, on any path and
// variant. It logs each variant's misses of the published candidate
// set against that maximum.
func TestObjectivePointsReachGridFull(t *testing.T) {
	if testing.Short() {
		t.Skip("dense grid skipped in -short mode")
	}
	c := generate(t, 2, 120)
	nc, err := netcalc.Analyze(c.pg, netcalc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		res, err := trajectory.Analyze(c.pg, v.opts)
		if err != nil {
			t.Fatal(err)
		}
		var ms misses
		for _, pid := range c.pg.Net.AllPaths() {
			o := newObjective(c.pg, nc, v.opts, pid)
			best, bestT := o.max(o.points())
			if g, gt := o.max(o.grid(2001)); tol.Gt(g, best) {
				t.Errorf("%s %v: the grid reaches R(%v) = %v, the points only %v", v.name, pid, gt, g, best)
			}
			ms.count(pid, best, bestT, res.Details[pid].DelayUs)
		}
		t.Logf("%s: %v", v.name, ms)
	}
}
