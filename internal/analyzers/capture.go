package analyzers

import (
	"go/ast"
	"go/types"
)

// ParClock enforces the caller's half of the internal/par determinism
// contract (DESIGN.md §9): a work unit handed to par.Map or par.ForEach
// must own every sim.Clock it touches. A clock captured from the
// enclosing scope is shared across concurrently running work units, so
// advancing it makes simulated time depend on goroutine interleaving —
// exactly the nondeterminism the runner is designed to rule out.
var ParClock = &Analyzer{
	Name: "parclock",
	ID:   "MMT006",
	Doc: "forbid par.Map/par.ForEach work-unit literals from touching a " +
		"sim.Clock declared outside the literal; each work unit must build " +
		"and own its clocks so simulated time is independent of scheduling",
	Run: func(pass *Pass) {
		reportCaptures(pass, "sim", "Clock", "work units must own the clocks they touch (DESIGN.md §9)")
	},
}

// TraceCtx enforces the causal-tracing half of the same contract
// (DESIGN.md §13): a work unit must not use a trace.Context declared
// outside the literal. A causal context names one logical protocol
// exchange; sharing it across concurrently running work units would
// parent spans from interleaved work onto the same trace in scheduling
// order, so the span tree — and the byte-identical mmt-causal/v1 export —
// would depend on goroutine interleaving. Work units that need causal
// spans must open their own root (Probe.NewTrace) inside the unit.
var TraceCtx = &Analyzer{
	Name: "tracectx",
	ID:   "MMT011",
	Doc: "forbid par.Map/par.ForEach work-unit literals from using a " +
		"trace.Context declared outside the literal; each work unit must " +
		"mint its own causal root so span trees are independent of scheduling",
	Run: func(pass *Pass) {
		reportCaptures(pass, "trace", "Context", "work units must mint their own causal roots (DESIGN.md §13)")
	},
}

// reportCaptures reports every use, inside a function literal passed to
// par.Map or par.ForEach, of a variable of type mmt/internal/<pkg>.<typ>
// (or a pointer to it) that is declared outside the literal. Only plain
// identifiers are considered: the selector in x.clock names a struct
// field whose declaration is necessarily elsewhere, and whether the
// *value* is shared is decided by the receiver x, which this walk does
// visit.
func reportCaptures(pass *Pass, pkg, typ, remedy string) {
	pkgPath := "mmt/internal/" + pkg
	pass.forEachCall("mmt/internal/par", []string{"Map", "ForEach"}, func(u *PackageUnit, call *ast.CallExpr, callee *types.Func) {
		for _, arg := range call.Args {
			lit, ok := ast.Unparen(arg).(*ast.FuncLit)
			if !ok {
				continue
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					v, ok := u.TypesInfo.Uses[n].(*types.Var)
					if !ok || v.IsField() || !isNamed(v.Type(), pkgPath, typ) {
						return true
					}
					if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
						pass.Reportf(n.Pos(), "work unit passed to par.%s captures %s.%s %q from the enclosing scope; %s",
							callee.Name(), pkg, typ, n.Name, remedy)
					}
				}
				return true
			}
			ast.Inspect(lit.Body, visit)
		}
	})
}

// isNamed reports whether t is the named type pkgPath.name or a pointer
// to it, aliases resolved.
func isNamed(t types.Type, pkgPath, name string) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == name && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkgPath
}
