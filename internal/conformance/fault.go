package conformance

import (
	"context"

	"afdx/internal/afdx"
	"afdx/internal/netcalc"
	"afdx/internal/trajectory"
)

// Fault selects one canned engine defect for oracle self-tests: the
// conformance machinery must demonstrably *catch* a broken engine, and
// these injectable faults are how tests (and the CLI's -fault flag)
// prove it without patching the real engines.
type Fault int

const (
	// FaultNCOptimistic halves every Network Calculus path bound — an
	// unsound "optimisation" the behavioural tier must expose.
	FaultNCOptimistic Fault = iota
	// FaultTrajectoryOptimistic halves every Trajectory path bound.
	FaultTrajectoryOptimistic
)

// FaultyOracle returns an oracle whose engines carry the given defect.
// Everything else (budgets, seeds) matches NewOracle.
func FaultyOracle(f Fault) *Oracle {
	o := NewOracle()
	switch f {
	case FaultNCOptimistic:
		real := o.Engines.NC
		o.Engines.NC = func(ctx context.Context, pg *afdx.PortGraph, opts netcalc.Options) (*netcalc.Result, error) {
			r, err := real(ctx, pg, opts)
			if err != nil {
				return nil, err
			}
			halved := *r
			halved.PathDelays = map[afdx.PathID]float64{}
			for pid, d := range r.PathDelays {
				halved.PathDelays[pid] = d / 2
			}
			return &halved, nil
		}
	case FaultTrajectoryOptimistic:
		real := o.Engines.Trajectory
		o.Engines.Trajectory = func(ctx context.Context, pg *afdx.PortGraph, opts trajectory.Options, nc *netcalc.Result) (*trajectory.Result, error) {
			r, err := real(ctx, pg, opts, nc)
			if err != nil {
				return nil, err
			}
			halved := *r
			halved.PathDelays = map[afdx.PathID]float64{}
			for pid, d := range r.PathDelays {
				halved.PathDelays[pid] = d / 2
			}
			return &halved, nil
		}
	}
	return o
}
