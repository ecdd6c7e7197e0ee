package detcheck

import (
	"sort"
	"strings"
)

// PkgClass is a package's determinism classification. The class decides
// which analyzers inspect the package: the engines carry the full
// bit-reproducibility contract, support libraries carry the
// order-stability rules, CLI frontends are free to read clocks and
// environments.
type PkgClass int

const (
	// ClassSupport is the default: shared libraries (model, minplus
	// consumers, conformance, obs, ...) that feed results but are not
	// themselves a delay engine. Order-stability rules (DET001, DET003,
	// DET005) apply.
	ClassSupport PkgClass = iota
	// ClassEngine marks the delay-analysis engines under the full
	// determinism contract; every analyzer applies.
	ClassEngine
	// ClassTolerance marks internal/core/tol, the single sanctioned home
	// of raw comparison-tolerance literals (DET004 exempts it).
	ClassTolerance
	// ClassTool marks cmd/* CLI frontends: interactive surface, wall
	// clocks and environment reads are legitimate there. Only the
	// fan-out counter rule (DET005) applies.
	ClassTool
)

func (c PkgClass) String() string {
	switch c {
	case ClassEngine:
		return "engine"
	case ClassTolerance:
		return "tolerance"
	case ClassTool:
		return "tool"
	default:
		return "support"
	}
}

// ParseClass parses a class name as written in a //detcheck:classify
// directive (test harness only; production classification is by import
// path).
func ParseClass(s string) (PkgClass, bool) {
	switch s {
	case "engine":
		return ClassEngine, true
	case "tolerance":
		return ClassTolerance, true
	case "tool":
		return ClassTool, true
	case "support":
		return ClassSupport, true
	}
	return ClassSupport, false
}

// enginePaths lists the packages under the full determinism contract:
// every number they produce is covered by the bit-reproducibility and
// served-parity gates.
var enginePaths = map[string]bool{
	"afdx/internal/netcalc":     true,
	"afdx/internal/trajectory":  true,
	"afdx/internal/exact":       true,
	"afdx/internal/sim":         true,
	"afdx/internal/minplus":     true,
	"afdx/internal/incremental": true,
}

// Classify maps an import path to its package class. Unknown paths
// (including ad-hoc test packages) default to ClassSupport.
func Classify(importPath string) PkgClass {
	switch {
	case enginePaths[importPath]:
		return ClassEngine
	case importPath == "afdx/internal/core/tol":
		return ClassTolerance
	case strings.HasPrefix(importPath, "afdx/cmd/"):
		return ClassTool
	default:
		return ClassSupport
	}
}

// EnginePaths returns the engine package set, sorted, for documentation
// output (afdx-vet -rules).
func EnginePaths() []string {
	out := make([]string, 0, len(enginePaths))
	for p := range enginePaths {
		out = append(out, p)
	}
	// Sorted so the -rules listing is stable (the suite practices what
	// it preaches: DET003).
	sort.Strings(out)
	return out
}
