package detcheck

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DET002 nondetsource: reads of nondeterministic sources inside engine
// packages. An engine result must be a pure function of the
// configuration and the options — the bit-reproducibility and
// served-parity gates (check.sh) replay analyses across worker
// counts and sessions and require bitwise identity, which a wall-clock
// read, an environment read, or the globally seeded math/rand source
// breaks by construction. Constructing a *local* seeded source
// (rand.New(rand.NewSource(seed))) stays legal: that is how sim and
// conformance derive reproducible randomness.
//
// The analyzer also flags the "arbitrary element" shape: a map range
// that captures a range variable and exits the loop early, which
// selects a random element.
func init() {
	Register(&Analyzer{
		ID:   CodeNondetSource,
		Name: "nondetsource",
		Doc: "forbids nondeterministic inputs in engine packages: time.Now/Since/Until, " +
			"os.Getenv/LookupEnv/Environ, package-level math/rand functions (globally " +
			"seeded), crypto/rand, and map ranges that capture an arbitrary element by " +
			"exiting early. Engine results must be pure functions of configuration and " +
			"options.",
		Classes: []PkgClass{ClassEngine},
		Run:     runNondetSource,
	})
}

// bannedFuncs maps package path -> function name -> replacement advice.
// Only package-level functions are matched (methods on locally seeded
// *rand.Rand values are fine).
var bannedFuncs = map[string]map[string]string{
	"time": {
		"Now":   "thread timestamps in from the CLI layer; engines must not read the wall clock",
		"Since": "thread durations in from the CLI layer; engines must not read the wall clock",
		"Until": "thread durations in from the CLI layer; engines must not read the wall clock",
	},
	"os": {
		"Getenv":    "pass configuration through Options, not the environment",
		"LookupEnv": "pass configuration through Options, not the environment",
		"Environ":   "pass configuration through Options, not the environment",
	},
}

// randConstructors are the math/rand package-level functions that build
// local deterministic state rather than touching the global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func runNondetSource(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkBannedCall(pass, n)
			case *ast.RangeStmt:
				if isMap(orNil(pass.TypeOf(n.X))) {
					checkArbitraryElement(pass, n)
				}
			}
			return true
		})
	}
}

func checkBannedCall(pass *Pass, call *ast.CallExpr) {
	f := calleeFunc(pass.Info, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	if sig, ok := f.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods are fine (locally seeded *rand.Rand etc.)
	}
	path, name := f.Pkg().Path(), f.Name()
	if advice, ok := bannedFuncs[path][name]; ok {
		pass.Reportf(call.Pos(), advice,
			"engine code calls %s.%s, a nondeterministic source", path, name)
		return
	}
	switch path {
	case "math/rand", "math/rand/v2":
		if !randConstructors[name] {
			pass.Reportf(call.Pos(),
				"derive randomness from a locally seeded source: rand.New(rand.NewSource(seed))",
				"engine code calls the globally seeded %s.%s", path, name)
		}
	case "crypto/rand":
		pass.Reportf(call.Pos(),
			"engines have no business with cryptographic randomness; use a seeded math/rand source",
			"engine code calls crypto/rand.%s", name)
	}
}

// checkArbitraryElement flags map ranges that copy a range variable
// into outer state (or return it) and exit the loop before completion:
// the captured element is whichever the randomized iteration yielded
// first. Pure existence checks (assigning constants, counting) are
// order-independent and stay legal.
func checkArbitraryElement(pass *Pass, rng *ast.RangeStmt) {
	rangeVars := rangeVarObjects(pass.Info, rng)
	if len(rangeVars) == 0 {
		return
	}
	exits := false
	captures := false
	// breakable tracks whether an unlabeled break at the current node
	// still targets the map range (false inside nested switch/select).
	var walk func(n ast.Node, breakable bool)
	walk = func(n ast.Node, breakable bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil || m == n {
				return true
			}
			switch st := m.(type) {
			case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt:
				// A break (and anything else) inside a nested loop or
				// closure exits that construct, not this range; stay
				// conservative and skip the subtree.
				return false
			case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				walk(m, false)
				return false
			case *ast.BranchStmt:
				if st.Tok == token.BREAK && st.Label == nil && breakable {
					exits = true
				}
			case *ast.ReturnStmt:
				exits = true
				for _, r := range st.Results {
					if mentionsAny(pass.Info, r, rangeVars) {
						captures = true
					}
				}
			case *ast.AssignStmt:
				for _, rhs := range st.Rhs {
					if mentionsAny(pass.Info, rhs, rangeVars) {
						for _, lhs := range st.Lhs {
							if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
								if id.Name != "_" && declaredOutside(pass.Info, id, rng.Pos(), rng.End()) {
									captures = true
								}
							} else {
								captures = true // selector/index on outer state
							}
						}
					}
				}
			}
			return true
		})
	}
	walk(rng.Body, true)
	if exits && captures {
		pass.Reportf(rng.Pos(),
			"iterate sorted keys, or restate the loop so the captured value is order-independent",
			"map range captures an arbitrary element (range variable stored and loop exited early): "+
				"the element picked depends on randomized iteration order")
	}
}
