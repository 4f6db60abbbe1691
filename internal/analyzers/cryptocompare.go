package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CryptoCompare forbids variable-time comparison of authentication tags.
// A `mac == stored` check leaks, through its timing, how early the
// values diverge; an attacker who can submit guesses and time the
// verifier recovers the tag byte by byte. MAC values produced by
// crypt.Engine (LineMAC, NodeMAC) must be compared with crypt.TagEqual
// (crypto/subtle.ConstantTimeCompare underneath), never with ==, != or
// bytes.Equal.
var CryptoCompare = &Analyzer{
	Name: "cryptocompare",
	ID:   "MMT002",
	Doc: "MAC/tag values from crypt.Engine.LineMAC/NodeMAC must not be compared " +
		"with == / != / bytes.Equal in verification paths; use crypt.TagEqual " +
		"(constant time) instead",
	Run: func(pass *Pass) {
		pass.forEachBody(func(u *PackageUnit, body *ast.BlockStmt) { checkFuncForMACCompares(pass, u.TypesInfo, body) })
	},
}

// macSources are the fully-qualified methods whose results are
// authentication tags.
var macSources = map[string]bool{
	"(*mmt/internal/crypt.Engine).LineMAC": true,
	"(*mmt/internal/crypt.Engine).NodeMAC": true,
	"(*mmt/internal/crypt.Engine).macMask": true,
}

// checkFuncForMACCompares does a simple flow-insensitive pass over one
// function body: any identifier ever assigned a MAC-source call result
// is tainted, and comparisons involving tainted values or direct
// MAC-source calls are reported.
func checkFuncForMACCompares(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	tainted := map[types.Object]bool{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		if !isMACSourceCall(info, rhs) {
			return
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				tainted[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					record(st.Lhs[i], st.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i := range st.Names {
					record(st.Names[i], st.Values[i])
				}
			}
		}
		return true
	})

	isMAC := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if isMACSourceCall(info, e) {
			return true
		}
		if id, ok := e.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				return tainted[obj]
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.BinaryExpr:
			if (e.Op == token.EQL || e.Op == token.NEQ) && (isMAC(e.X) || isMAC(e.Y)) {
				pass.Reportf(e.OpPos, "MAC value compared with %s leaks tag bytes through timing; "+
					"use crypt.TagEqual (crypto/subtle) instead", e.Op)
			}
		case *ast.CallExpr:
			fn := funcObj(info, e)
			if fn == nil {
				return true
			}
			full := fn.FullName()
			if full == "bytes.Equal" || full == "reflect.DeepEqual" {
				for _, arg := range e.Args {
					if isMAC(arg) {
						pass.Reportf(e.Pos(), "MAC value compared with %s leaks tag bytes through timing; "+
							"use crypt.TagEqual or crypto/subtle.ConstantTimeCompare", full)
						break
					}
				}
			}
		}
		return true
	})
}

func isMACSourceCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := funcObj(info, call)
	return fn != nil && macSources[fn.FullName()]
}
