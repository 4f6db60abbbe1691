package analyzers

import "go/ast"

// NoPanic forbids panic in library packages under internal/. A panicking
// constructor or verifier takes down the whole simulated cluster instead
// of failing one operation, and it hides error paths the experiments
// need to exercise (a rejected closure must surface as an error the
// protocol can nack, not as a crash).
//
// Panics that guard genuinely impossible states (bounds guards
// equivalent to built-in slice indexing, crypto constructors with
// fixed-size keys) are suppressed case by case with a justifying
// //mmt:allow nopanic comment.
var NoPanic = &Analyzer{
	Name: "nopanic",
	ID:   "MMT004",
	Doc: "no panic() in library packages under internal/; constructors and " +
		"verifiers must return errors (suppress impossible-state guards with " +
		"//mmt:allow nopanic: <reason>)",
	Run: runNoPanic,
}

func runNoPanic(pass *Pass) {
	for u, f := range pass.files() {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isBuiltinCall(u.TypesInfo, call, "panic") {
				pass.Reportf(call.Pos(), "panic in library package %s; return an error instead", u.Pkg.Path())
			}
			return true
		})
	}
}
