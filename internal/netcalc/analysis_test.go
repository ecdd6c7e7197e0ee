package netcalc

import (
	"math"
	"testing"

	"afdx/internal/afdx"
)

// On the hand-checkable configurations the paper's WCNC (grouped) is
// never looser than the separated analysis (grouping and staircases
// off).
func TestTierOrderingOnSampleConfigs(t *testing.T) {
	for _, cfg := range []struct {
		name string
		net  *afdx.Network
	}{
		{"figure1", afdx.Figure1Config()},
		{"figure2", afdx.Figure2Config()},
	} {
		pg, err := afdx.BuildPortGraph(cfg.net, afdx.Strict)
		if err != nil {
			t.Fatal(err)
		}
		separated, err := Analyze(pg, Options{})
		if err != nil {
			t.Fatalf("%s separated: %v", cfg.name, err)
		}
		wcnc, err := Analyze(pg, DefaultOptions())
		if err != nil {
			t.Fatalf("%s WCNC: %v", cfg.name, err)
		}
		const relTol = 1e-9
		leq := func(a, b float64) bool { return a <= b+relTol*(1+math.Abs(a)+math.Abs(b)) }
		for pid, dw := range wcnc.PathDelays {
			if ds := separated.PathDelays[pid]; !leq(dw, ds) {
				t.Errorf("%s %v: WCNC %g looser than the separated analysis %g", cfg.name, pid, dw, ds)
			}
		}
	}
}

// Per-flow delay terms: one per (VL, port) incidence, in Port.Flows
// order, equal to the priority-level bound, and path bounds are exactly
// their sums.
func TestFlowDelaysPerTier(t *testing.T) {
	pg := figure2Graph(t)
	res, err := Analyze(pg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range pg.Order {
		port, pr := pg.Ports[id], res.Ports[id]
		if len(pr.Flows) != len(port.Flows) {
			t.Fatalf("port %v: %d flow bounds for %d flows", id, len(pr.Flows), len(port.Flows))
		}
		for k, f := range port.Flows {
			if fd, lvl := pr.Flows[k].DelayUs, pr.DelayByPriority[f.VL.Priority]; fd != lvl {
				t.Errorf("flow %s at %v: %g != level bound %g", f.VL.ID, id, fd, lvl)
			}
		}
	}
	for _, pid := range pg.Net.AllPaths() {
		sum := 0.0
		for _, portID := range pg.PathPorts(pid) {
			k, _ := pg.Ports[portID].FlowIndex(pid.VL)
			sum += res.Ports[portID].Flows[k].DelayUs
		}
		if sum != res.PathDelays[pid] {
			t.Errorf("path %v: flow-delay sum %g != path bound %g", pid, sum, res.PathDelays[pid])
		}
	}
}
