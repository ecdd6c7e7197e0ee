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

// Explain runs the analysis and returns the per-port decomposition of
// one path's bound; the port delays sum to the path bound.
func Explain(pg *afdx.PortGraph, pid afdx.PathID, opts Options) (*PathExplanation, error) {
	res, err := Analyze(pg, opts)
	if err != nil {
		return nil, err
	}
	d, ok := res.PathDelays[pid]
	if !ok {
		return nil, fmt.Errorf("netcalc: unknown path %v", pid)
	}
	vl := pg.VL(pid.VL)
	ex := &PathExplanation{Path: pid, DelayUs: d}
	for _, portID := range pg.PathPorts(pid) {
		pr := res.Ports[portID]
		port := pg.Ports[portID]
		key := FlowPortKey{vl.ID, portID}
		ex.Ports = append(ex.Ports, PortTerm{
			Port:          portID,
			DelayUs:       res.FlowDelays[key],
			LatencyUs:     port.LatencyUs,
			Utilization:   pr.Utilization,
			NumFlows:      len(port.Flows),
			BurstBits:     res.Bursts[key],
			PrefixDelayUs: res.PrefixDelays[key],
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
