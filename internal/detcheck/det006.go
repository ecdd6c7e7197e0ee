package detcheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// DET006 ctxloop: unbounded engine loops without a reachable
// cancellation check. The PR 2 trajectory bug hid a non-converging
// busy-period fixpoint behind a 1e6-iteration bail: the engine neither
// terminated promptly nor reported infeasibility. The repository's
// discipline since is (a) condition-free loops in engine code must poll
// ctx.Err() / select on ctx.Done() so afdx-bounds and the conformance
// budget can cancel them, and (b) literal iteration caps of 1e6 or more
// are a bail in disguise and must be replaced by a derived capacity
// bound (see trajectory.busyFixpoint's remaining-capacity cap).
func init() {
	Register(&Analyzer{
		ID:   CodeCtxLoop,
		Name: "ctxloop",
		Doc: "requires engine loops without a loop condition (`for {`, `for ; ; {`) to poll " +
			"context cancellation (ctx.Err() or ctx.Done()), and forbids literal iteration " +
			"caps >= 1e6 (an unbounded-loop bail in disguise; derive the cap from the " +
			"problem instead).",
		Classes: []PkgClass{ClassEngine},
		Run:     runCtxLoop,
	})
}

// hugeIterationCap is the literal loop bound at which a "bounded" loop
// stops being a bound and starts being a bail.
const hugeIterationCap = 1e6

func runCtxLoop(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			if loop.Cond == nil {
				if !pollsContext(pass, loop.Body) {
					pass.Reportf(loop.Pos(),
						"poll cancellation inside the loop (if err := ctx.Err(); err != nil { return ... }), "+
							"at a stride if the body is hot",
						"condition-free loop in engine code without a context cancellation check: "+
							"afdx-bounds and the conformance budget cannot cancel it")
				}
				return true
			}
			if lit := hugeLiteralBound(pass, loop.Cond); lit != "" && !pollsContext(pass, loop.Body) {
				pass.Reportf(loop.Pos(),
					"derive the iteration cap from the problem (capacity bounds, grid sizes) and "+
						"poll ctx at a stride; a huge literal cap is an unbounded loop with a bail",
					"loop bounded only by the literal cap %s (>= 1e6) without a cancellation check: "+
						"the PR 2 trajectory busy-period bug class", lit)
			}
			return true
		})
	}
}

// pollsContext reports whether the loop body (outside nested function
// literals) evaluates ctx.Err(), receives from ctx.Done(), or selects
// on it — for any value of type context.Context.
func pollsContext(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Err" && sel.Sel.Name != "Done" {
			return true
		}
		if isContext(pass.TypeOf(sel.X)) {
			found = true
		}
		return true
	})
	return found
}

func isContext(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return namedIs(n, "context", "Context")
}

// hugeLiteralBound returns the text of an integer/float literal >= 1e6
// used as a comparison bound in the loop condition, or "".
func hugeLiteralBound(pass *Pass, cond ast.Expr) string {
	found := ""
	ast.Inspect(cond, func(n ast.Node) bool {
		cmp, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch cmp.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
		default:
			return true
		}
		for _, side := range []ast.Expr{cmp.X, cmp.Y} {
			lit, ok := ast.Unparen(side).(*ast.BasicLit)
			if !ok || (lit.Kind != token.INT && lit.Kind != token.FLOAT) {
				continue
			}
			if tv, ok := pass.Info.Types[lit]; ok && tv.Value != nil {
				if v, _ := constant.Float64Val(constant.ToFloat(tv.Value)); v >= hugeIterationCap {
					found = lit.Value
				}
			}
		}
		return true
	})
	return found
}
