package conformance

import (
	"context"

	"afdx/internal/afdx"
	"afdx/internal/obs"
)

// Shrink minimises a violating configuration: starting from net — on
// which the oracle reported a violation of invariant inv — it greedily
// applies structure-removing transformations (drop VLs, collapse
// multicast path sets, shrink frame sizes) and keeps every candidate on
// which the same invariant still fails, until no transformation makes
// progress or the evaluation budget (oracle re-runs) is exhausted.
//
// The result is the smallest reproducing network found, ready for the
// replay corpus. Shrinking re-checks candidates with only the tiers
// that can produce inv — re-running the rest of the lattice on every
// candidate slows convergence without changing which candidates are
// kept (the corpus replay re-runs the full lattice on the result).
func (o *Oracle) Shrink(net *afdx.Network, inv Invariant, budget int) *afdx.Network {
	return o.ShrinkCtx(context.Background(), net, inv, budget)
}

// ShrinkCtx is Shrink with observability: the minimisation runs under
// a "shrink" span, and the context registry counts kept transformation
// steps and oracle re-runs (both BestEffort: shrinking only happens
// after a violation, whose discovery may itself be budget-dependent).
func (o *Oracle) ShrinkCtx(ctx context.Context, net *afdx.Network, inv Invariant, budget int) *afdx.Network {
	ctx, span := obs.StartSpan(ctx, "shrink")
	defer span.End()
	var steps, runs *obs.Counter
	if reg := obs.RegistryFrom(ctx); reg != nil {
		steps = reg.Counter("conformance.shrink_steps", obs.BestEffort,
			"structure-removing transformations the shrinker kept")
		runs = reg.Counter("conformance.shrink_oracle_runs", obs.BestEffort,
			"oracle re-runs spent minimising violating configurations")
	}
	if budget <= 0 {
		budget = 200
	}
	inner := *o
	// stillFails below only asks whether inv reproduces, so the inner
	// oracle runs just the tiers that can produce it (violations of
	// other invariants would be discarded anyway).
	inner.only = inv
	inner.SkipMetamorphic = false // `only` already restricts the tiers
	evals := 0
	stillFails := func(cand *afdx.Network) bool {
		if evals >= budget {
			return false
		}
		evals++
		runs.Inc()
		vs, err := inner.CheckCtx(ctx, cand)
		if err != nil {
			return false // a candidate the engines reject is no repro
		}
		for _, v := range vs {
			if v.Invariant == inv {
				steps.Inc() // the candidate reproduces: this transformation is kept
				return true
			}
		}
		return false
	}

	cur := net.Clone()
	for progress := true; progress && evals < budget; {
		progress = false
		// Pass 1: drop whole VLs, largest index first so the survivors
		// keep stable identifiers. Each pass stops cloning once the
		// budget is spent — stillFails would reject the candidates
		// unevaluated, so building them is pure waste.
		for i := len(cur.VLs) - 1; i >= 0 && len(cur.VLs) > 1 && evals < budget; i-- {
			cand := cur.Clone()
			cand.VLs = append(cand.VLs[:i], cand.VLs[i+1:]...)
			pruneNodes(cand)
			if stillFails(cand) {
				cur = cand
				progress = true
			}
		}
		// Pass 2: collapse each VL's multicast path set to one path.
		for i := range cur.VLs {
			if len(cur.VLs[i].Paths) <= 1 || evals >= budget {
				continue
			}
			for keep := 0; keep < len(cur.VLs[i].Paths) && evals < budget; keep++ {
				cand := cur.Clone()
				cand.VLs[i].Paths = [][]string{cand.VLs[i].Paths[keep]}
				pruneNodes(cand)
				if stillFails(cand) {
					cur = cand
					progress = true
					break
				}
			}
		}
		// Pass 3: shrink frame sizes to the Ethernet minimum.
		for i := range cur.VLs {
			if cur.VLs[i].SMaxBytes <= afdx.MinFrameBytes || evals >= budget {
				continue
			}
			cand := cur.Clone()
			cand.VLs[i].SMaxBytes = afdx.MinFrameBytes
			cand.VLs[i].SMinBytes = afdx.MinFrameBytes
			if stillFails(cand) {
				cur = cand
				progress = true
			}
		}
	}
	return cur
}

// pruneNodes removes end systems and switches no remaining VL path
// visits (dropping VLs orphans nodes, which only adds lint noise to the
// replay corpus).
func pruneNodes(n *afdx.Network) {
	used := map[string]bool{}
	for _, v := range n.VLs {
		for _, p := range v.Paths {
			for _, node := range p {
				used[node] = true
			}
		}
	}
	keep := func(ids []string) []string {
		out := ids[:0]
		for _, id := range ids {
			if used[id] {
				out = append(out, id)
			}
		}
		return out
	}
	n.EndSystems = keep(n.EndSystems)
	n.Switches = keep(n.Switches)
}
