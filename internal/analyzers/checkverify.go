package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// CheckVerify forbids discarding the result of an authentication check.
// An ignored Verify*/Open/Unseal error turns a cryptographic rejection
// into silent acceptance — exactly the bug class that would invalidate
// the tamper and replay experiments while leaving every test green.
var CheckVerify = &Analyzer{
	Name: "checkverify",
	ID:   "MMT003",
	Doc: "error/bool results of Verify* functions, AEAD Open and Unseal must " +
		"not be discarded (no bare call statements, no assignment to _)",
	Run: runCheckVerify,
}

func runCheckVerify(pass *Pass) {
	for u, f := range pass.files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					checkDiscardedCall(pass, u, call, "result discarded")
				}
			case *ast.GoStmt:
				checkDiscardedCall(pass, u, st.Call, "result discarded by go statement")
			case *ast.DeferStmt:
				checkDiscardedCall(pass, u, st.Call, "result discarded by defer statement")
			case *ast.AssignStmt:
				checkBlankAssign(pass, u, st)
			}
			return true
		})
	}
}

// isAuthCheck reports whether fn is an authentication-check function
// whose result encodes accept/reject: any Verify*, a method named
// Unseal, or crypto/cipher.AEAD.Open.
func isAuthCheck(fn *types.Func) bool {
	switch {
	case strings.HasPrefix(fn.Name(), "Verify"):
		return true
	case fn.Name() == "Unseal":
		return fn.Signature().Recv() != nil
	case fn.Name() == "Open":
		recv := fn.Signature().Recv()
		return recv != nil && types.TypeString(recv.Type(), nil) == "crypto/cipher.AEAD"
	}
	return false
}

func checkDiscardedCall(pass *Pass, u *PackageUnit, call *ast.CallExpr, how string) {
	fn := funcObj(u.TypesInfo, call)
	if fn == nil || !isAuthCheck(fn) {
		return
	}
	pass.Reportf(call.Pos(), "%s of authentication check %s: a rejected "+
		"input would be silently accepted", how, fn.Name())
}

// checkBlankAssign flags `v, _ := aead.Open(...)`-style statements where
// the verdict-carrying result (an error or bool) lands in the blank
// identifier.
func checkBlankAssign(pass *Pass, u *PackageUnit, st *ast.AssignStmt) {
	if len(st.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := funcObj(u.TypesInfo, call)
	if fn == nil || !isAuthCheck(fn) {
		return
	}
	results := fn.Signature().Results()
	if results.Len() != len(st.Lhs) {
		return
	}
	for i := 0; i < results.Len(); i++ {
		id, ok := st.Lhs[i].(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		rt := results.At(i).Type()
		if t, ok := rt.(*types.Basic); ok && t.Kind() == types.Bool {
			pass.Reportf(id.Pos(), "bool verdict of authentication check %s assigned to _", fn.Name())
		} else if types.Identical(rt, types.Universe.Lookup("error").Type()) {
			pass.Reportf(id.Pos(), "error result of authentication check %s assigned to _", fn.Name())
		}
	}
}
