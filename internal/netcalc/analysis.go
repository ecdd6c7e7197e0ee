package netcalc

import (
	"fmt"
	"strings"
)

// Analysis names the NC analysis tier a client asks for: the paper's
// WCNC pipeline or the FIFO-residual formulation of Bouillard and Le
// Boudec & Thiran (Thm 6.2.2). Both are sound and they are equal: the
// FIFO per-flow bound minimised exactly over theta is the WCNC level
// bound (DESIGN.md §14.1), so the engine computes one bound for both
// and caches treat the tier as result-neutral. The conformance oracle
// holds FIFO == WCNC bitwise on every campaign. The separated
// (ungrouped) bound of a textbook Total Flow Analysis is not a tier: it
// is Options{Grouping: false, StairSteps: 0}.
type Analysis uint8

const (
	// AnalysisWCNC is the paper's pipeline and the default (zero
	// value): grouped per-level aggregates, serialization shaping,
	// horizontal-deviation port bounds.
	AnalysisWCNC Analysis = iota
	// AnalysisFIFO asks for the per-flow bound through the FIFO
	// residual service [beta(t) - cross(t-theta)]+. Its minimum over
	// theta is the WCNC bound, which is what it returns.
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
