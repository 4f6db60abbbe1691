package analyzers

import (
	"go/ast"
	"go/types"
)

// MapOrder flags `range` over a map when the loop body has
// order-dependent effects. Go randomizes map iteration order, so a body
// that hashes, serializes, sends, charges simulated cycles, or appends
// to long-lived state produces run-to-run different results — the exact
// failure mode the deterministic-simulation contract forbids.
//
// The one sanctioned shape is collect-then-sort: a body that only
// appends keys/values to a function-local slice (later sorted), only
// accumulates into function-local integer counters, or only deletes from
// a map, is order-insensitive and passes. Everything else must either
// iterate a sorted key slice or carry a //mmt:allow maporder comment
// explaining why order cannot matter.
var MapOrder = &Analyzer{
	Name: "maporder",
	ID:   "MMT005",
	Doc: "flag range over a map whose body has order-dependent effects " +
		"(hashing, serialization, sends, cycle charging, appends to shared state); " +
		"iterate sorted keys instead",
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) {
	for u, f := range pass.files() {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := u.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if bodyIsOrderInsensitive(u, rng.Body.List) {
				return true
			}
			pass.Reportf(rng.Pos(), "map iteration order is randomized and this loop body has "+
				"order-dependent effects; iterate a sorted copy of the keys")
			return true
		})
	}
}

// bodyIsOrderInsensitive reports whether every statement is one of the
// commutative shapes (local-slice append, local integer accumulation,
// map delete, continue, or an if around only such statements).
func bodyIsOrderInsensitive(u *PackageUnit, stmts []ast.Stmt) bool {
	for _, st := range stmts {
		if !stmtIsOrderInsensitive(u, st) {
			return false
		}
	}
	return true
}

func stmtIsOrderInsensitive(u *PackageUnit, st ast.Stmt) bool {
	switch s := st.(type) {
	case *ast.AssignStmt:
		return assignIsOrderInsensitive(u, s)
	case *ast.IncDecStmt:
		return isLocalInteger(u, s.X)
	case *ast.ExprStmt:
		// delete(m, k) is commutative across iterations.
		call, ok := s.X.(*ast.CallExpr)
		return ok && isBuiltinCall(u.TypesInfo, call, "delete")
	case *ast.BranchStmt:
		return s.Label == nil
	case *ast.IfStmt:
		if s.Init != nil || !bodyIsOrderInsensitive(u, s.Body.List) {
			return false
		}
		if s.Else == nil {
			return true
		}
		if blk, ok := s.Else.(*ast.BlockStmt); ok {
			return bodyIsOrderInsensitive(u, blk.List)
		}
		return stmtIsOrderInsensitive(u, s.Else)
	default:
		return false
	}
}

func assignIsOrderInsensitive(u *PackageUnit, s *ast.AssignStmt) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	switch s.Tok.String() {
	case "=", ":=":
		// x = append(x, ...) with x function-local: the collect half of
		// collect-then-sort. Element order is unspecified until sorted.
		call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
		if !ok || !isBuiltinCall(u.TypesInfo, call, "append") {
			return false
		}
		lhs, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident)
		if !ok || len(call.Args) == 0 {
			return false
		}
		arg0, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok || arg0.Name != lhs.Name {
			return false
		}
		return isLocalVar(u, lhs)
	case "+=", "|=", "&=", "^=":
		// Commutative integer accumulation into a local.
		return isLocalInteger(u, s.Lhs[0])
	default:
		return false
	}
}

// isLocalVar reports whether e is an identifier for a function-local
// variable (not a package global, not a field, not captured state).
func isLocalVar(u *PackageUnit, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := u.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return v.Parent() != nil && v.Parent() != u.Pkg.Scope() && v.Parent() != types.Universe
}

// isLocalInteger reports whether e is a function-local variable of
// integer kind (float accumulation is order-sensitive through rounding).
func isLocalInteger(u *PackageUnit, e ast.Expr) bool {
	if !isLocalVar(u, e) {
		return false
	}
	t, ok := u.TypesInfo.TypeOf(e).Underlying().(*types.Basic)
	return ok && t.Info()&types.IsInteger != 0
}
