package netcalc

import (
	"fmt"
	"strings"
)

// Analysis selects the tightness/cost tier of the NC analysis: the
// paper's WCNC pipeline or Bouillard's tighter, costlier FIFO
// refinement of it. Both are sound (a true upper bound on every path)
// and the FIFO tier is never looser; the conformance oracle enforces
// WCNC >= FIFO >= sim/exact on every campaign. The separated
// (ungrouped) bound of a textbook Total Flow Analysis is not a tier: it
// is Options{Grouping: false, StairSteps: 0}.
type Analysis uint8

const (
	// AnalysisWCNC is the paper's pipeline and the default (zero
	// value): grouped per-level aggregates, serialization shaping,
	// horizontal-deviation port bounds. Options literals that predate
	// the tier knob keep their meaning unchanged.
	AnalysisWCNC Analysis = iota
	// AnalysisFIFO is the tighter, costlier Bouillard-style tier: on
	// top of the WCNC port bound D, each flow's delay is refined
	// through the FIFO residual service [beta(t) - cross(t-theta)]+
	// minimised over a theta candidate grid and clamped to D, and the
	// refined per-flow delay drives burst propagation. Never looser
	// than WCNC.
	AnalysisFIFO
)

func (a Analysis) String() string {
	switch a {
	case AnalysisWCNC:
		return "WCNC"
	case AnalysisFIFO:
		return "FIFO"
	}
	return fmt.Sprintf("Analysis(%d)", uint8(a))
}

// ParseAnalysis parses a tier name (case-insensitive). Every CLI and
// the serving layer share this parser, so an unknown tier fails with
// the same vocabulary everywhere.
func ParseAnalysis(s string) (Analysis, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "WCNC":
		return AnalysisWCNC, nil
	case "FIFO":
		return AnalysisFIFO, nil
	}
	return 0, fmt.Errorf("unknown analysis tier %q (want WCNC or FIFO)", s)
}
