package netcalc

import (
	"fmt"
	"io"

	"afdx/internal/afdx"
)

// PathExplanation decomposes one path's Network Calculus bound into its
// per-port terms: the reviewable form of the holistic analysis.
type PathExplanation struct {
	Path    afdx.PathID
	DelayUs float64
	Ports   []PortTerm
}

// PortTerm is one crossed output port's contribution.
type PortTerm struct {
	Port afdx.PortID
	// DelayUs is the port's delay bound for this flow: its priority
	// level's bound.
	DelayUs float64
	// LatencyUs, Utilization and NumFlows describe the port.
	LatencyUs   float64
	Utilization float64
	NumFlows    int
	// BurstBits is the analyzed flow's envelope burst on arrival at the
	// port (inflated by upstream jitter).
	BurstBits float64
	// PrefixDelayUs is the accumulated bound before this port.
	PrefixDelayUs float64
}

// Explain projects one path's bound out of the result into its
// per-port terms; no engine runs. pg must be the graph the result was
// computed on; a port whose flow count differs from the result's is an
// error. The terms read the engine's own per-flow values, so the port
// delays summed in path order equal the path bound, and so does the
// last port's PrefixDelayUs + DelayUs.
func (r *Result) Explain(pg *afdx.PortGraph, pid afdx.PathID) (*PathExplanation, error) {
	d, ok := r.PathDelays[pid]
	if !ok {
		return nil, fmt.Errorf("netcalc: unknown path %v", pid)
	}
	ex := &PathExplanation{Path: pid, DelayUs: d}
	for _, portID := range pg.PathPorts(pid) {
		port, pr := pg.Ports[portID], r.Ports[portID]
		if len(pr.Flows) != len(port.Flows) {
			return nil, fmt.Errorf("netcalc: the result holds %d flows at port %s, the port graph %d (a result of another graph?)",
				len(pr.Flows), portID, len(port.Flows))
		}
		k, _ := port.FlowIndex(pid.VL)
		fb := pr.Flows[k]
		ex.Ports = append(ex.Ports, PortTerm{
			Port:          portID,
			DelayUs:       fb.DelayUs,
			LatencyUs:     port.LatencyUs,
			Utilization:   pr.Utilization,
			NumFlows:      len(port.Flows),
			BurstBits:     fb.BurstBits,
			PrefixDelayUs: fb.PrefixUs,
		})
	}
	return ex, nil
}

// Render writes the explanation as text.
func (ex *PathExplanation) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "network calculus bound for %v: %.2f us (sum of per-port bounds)\n",
		ex.Path, ex.DelayUs); err != nil {
		return err
	}
	for _, p := range ex.Ports {
		if _, err := fmt.Fprintf(w,
			"  %-12v delay %8.2f us  (flows %3d, util %5.1f%%, own burst %7.0f bits, after %8.2f us)\n",
			p.Port, p.DelayUs, p.NumFlows, p.Utilization*100, p.BurstBits, p.PrefixDelayUs); err != nil {
			return err
		}
	}
	return nil
}
