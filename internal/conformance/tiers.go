package conformance

import (
	"context"

	"afdx/internal/afdx"
	"afdx/internal/netcalc"
)

// This file is the tier leg of the oracle: the NC engine's two analysis
// tiers (WCNC, FIFO) are the same bound — FIFO's exact theta-minimum is
// the WCNC level bound (DESIGN.md §14.1) — so they must agree bit for
// bit, and the behavioural chain (simulation, exact search) must stay
// below the FIFO tier too. The FIFO tier is also held to the
// determinism contract: bit-identical bounds at every worker count.

// fifoOptions returns the oracle's FIFO-tier engine options: the
// grouped paper defaults with the FIFO tier selected.
func fifoOptions(workers int) netcalc.Options {
	return netcalc.Options{Grouping: true, Analysis: netcalc.AnalysisFIFO, Parallel: workers}
}

// checkTiers asserts FIFO == WCNC bitwise on every path and the
// parallel parity of the FIFO tier. ncG/ncF are the sequential
// reference runs of the WCNC and FIFO tiers.
func (o *Oracle) checkTiers(ctx context.Context, pg *afdx.PortGraph, ncG, ncF *netcalc.Result) []Violation {
	var vs []Violation
	for _, pid := range sortedPathKeys(ncG.PathDelays) {
		wcnc := ncG.PathDelays[pid]
		switch fifo, ok := ncF.PathDelays[pid]; {
		case !ok:
			vs = append(vs, Violation{InvTierOrdering, pid, 0, wcnc, "FIFO tier lost the path"})
		case fifo != wcnc:
			vs = append(vs, Violation{InvTierOrdering, pid, fifo, wcnc,
				"FIFO tier differs from WCNC (its exact theta-minimum is the WCNC bound)"})
		}
	}

	// The FIFO tier carries the same determinism contract as the
	// default: a multi-worker run is bit-identical to the sequential
	// reference (the WCNC tier's parity lives in checkDeterminism).
	workers := o.ParityWorkers
	if workers <= 0 {
		workers = 4
	}
	par, err := o.Engines.NC(ctx, pg, fifoOptions(workers))
	if err != nil {
		return append(vs, Violation{InvParallelParity, afdx.PathID{}, 0, 0,
			"netcalc FIFO tier parallel run failed: " + err.Error()})
	}
	return append(vs, diffPathDelays(InvParallelParity, "netcalc FIFO tier", ncF.PathDelays, par.PathDelays)...)
}
