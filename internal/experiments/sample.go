// Package experiments regenerates every table and figure of the paper's
// evaluation: the Figure 3/4 trajectory scenarios, the Table I industrial
// comparison, the Figure 5/6 aggregate views, and the Figure 7/8/9
// parametric sweeps on the sample configuration. Each experiment has a
// typed Run function (used by tests and benchmarks) and a registry entry
// that renders the paper's rows/series to a writer (used by the
// afdx-experiments command).
package experiments

import (
	"context"
	"fmt"

	"afdx/internal/afdx"
	"afdx/internal/core"
	"afdx/internal/trajectory"
)

// V1Path identifies the path under study in the parametric sweeps.
var V1Path = afdx.PathID{VL: "v1", PathIdx: 0}

// SampleBounds computes the Network Calculus and Trajectory end-to-end
// bounds of VL v1 on the paper's Figure 2 sample configuration, with
// v1's contract overridden to the given s_max (bytes) and BAG (ms) —
// the primitive behind Figures 7, 8 and 9, read off one certified
// comparison (one WCNC run). Validation is relaxed, as the paper sweeps
// values outside the ARINC 664 sets.
func SampleBounds(smaxBytes int, bagMs float64) (ncUs, trajUs float64, err error) {
	n := afdx.Figure2Config()
	n.VLs[0].SMaxBytes = smaxBytes
	n.VLs[0].SMinBytes = smaxBytes
	n.VLs[0].BAGMs = bagMs
	pg, err := afdx.BuildPortGraph(n, afdx.Relaxed)
	if err != nil {
		return 0, 0, err
	}
	cmp, err := core.Compare(pg)
	if err != nil {
		return 0, 0, err
	}
	pc := cmp.PerPath[V1Path]
	return pc.NCUs, pc.TrajectoryUs, nil
}

// SweepPoint is one point of the Figure 7 or Figure 8 series.
type SweepPoint struct {
	SMaxBytes int
	BAGMs     float64
	NCUs      float64
	TrajUs    float64
}

// SweepSmax reproduces Figure 7: v1's bounds for s_max from 100 B to
// 1500 B (step 100 B), BAG fixed at 4 ms, every other VL at 500 B/4 ms.
func SweepSmax() ([]SweepPoint, error) {
	var pts []SweepPoint
	for s := 100; s <= 1500; s += 100 {
		nc, tr, err := SampleBounds(s, 4)
		if err != nil {
			return nil, fmt.Errorf("experiments: s_max %dB: %w", s, err)
		}
		pts = append(pts, SweepPoint{SMaxBytes: s, BAGMs: 4, NCUs: nc, TrajUs: tr})
	}
	return pts, nil
}

// SweepBAG reproduces Figure 8: v1's bounds for BAG over the harmonic
// values 1..128 ms, s_max fixed at 500 B.
func SweepBAG() ([]SweepPoint, error) {
	var pts []SweepPoint
	for bag := 1.0; bag <= 128; bag *= 2 {
		nc, tr, err := SampleBounds(500, bag)
		if err != nil {
			return nil, fmt.Errorf("experiments: BAG %gms: %w", bag, err)
		}
		pts = append(pts, SweepPoint{SMaxBytes: 500, BAGMs: bag, NCUs: nc, TrajUs: tr})
	}
	return pts, nil
}

// SurfaceCell is one cell of Figure 9: the signed difference between the
// Network Calculus and Trajectory bounds (positive: Trajectory tighter).
type SurfaceCell struct {
	SMaxBytes    int
	BAGMs        float64
	DifferenceUs float64
}

// Surface reproduces Figure 9: the (BAG, s_max) plane of bound
// differences for v1.
func Surface() ([]SurfaceCell, error) {
	var cells []SurfaceCell
	for bag := 1.0; bag <= 128; bag *= 2 {
		for s := 100; s <= 1500; s += 100 {
			nc, tr, err := SampleBounds(s, bag)
			if err != nil {
				return nil, fmt.Errorf("experiments: (%gms, %dB): %w", bag, s, err)
			}
			cells = append(cells, SurfaceCell{SMaxBytes: s, BAGMs: bag, DifferenceUs: nc - tr})
		}
	}
	return cells, nil
}

// ScenarioBounds reproduces Figures 3 and 4: the trajectory bound of v1
// on the untouched Figure 2 configuration without grouping (the
// impossible simultaneous-arrival scenario of Figure 3) and with
// grouping (the serialized scenario of Figure 4), plus the Network
// Calculus reference. The certified comparison's WCNC run supplies the
// ungrouped run's prefix bounds too, so WCNC runs once.
func ScenarioBounds() (ungroupedUs, groupedUs, ncUs float64, err error) {
	pg, err := afdx.BuildPortGraph(afdx.Figure2Config(), afdx.Strict)
	if err != nil {
		return 0, 0, 0, err
	}
	cmp, err := core.Compare(pg)
	if err != nil {
		return 0, 0, 0, err
	}
	ung, err := trajectory.AnalyzeWithNCCtx(context.Background(), pg, trajectory.Options{Grouping: false}, cmp.NC)
	if err != nil {
		return 0, 0, 0, err
	}
	pc := cmp.PerPath[V1Path]
	return ung.PathDelays[V1Path], pc.TrajectoryUs, pc.NCUs, nil
}

// CrossoverSmax locates the s_max value (to the given step, in bytes) at
// which the two methods' bounds cross on the Figure 7 sweep, i.e. the
// largest swept s_max for which Network Calculus is strictly tighter.
// It returns 0 when Network Calculus never wins on the sweep.
func CrossoverSmax(pts []SweepPoint) int {
	cross := 0
	for _, p := range pts {
		if p.NCUs < p.TrajUs {
			cross = p.SMaxBytes
		}
	}
	return cross
}
