package tree

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"slices"
	"strings"
	"testing"
)

// macInputWriters classifies every function of this package that writes
// something a node MAC is computed from or compared with: the counter and
// MAC planes, the root counter, the binding. The verified and stale bits
// (DESIGN §19) are sound only if each such writer is one of
//
//   - update: the Update family. It re-MACs what it changes, now
//     (rehashNode) or at the next observation (rehashPath, flush).
//   - external: anyone else's write. It calls settle — every deferred MAC
//     computed, every verification forgotten — before its first write.
//   - fresh: it writes a tree newTree has just built, which has no state.
//   - raw: an unexported helper with no discipline of its own; a call to
//     it counts as a write by the caller.
//
// A function that starts writing fails TestMACInputWriters until it is
// listed here, which is the moment to decide which of these it is.
var macInputWriters = map[string]string{
	"Tree.Update":           "update",
	"Tree.UpdateRun":        "update",
	"Tree.BumpRootCounter":  "update",
	"Tree.rehashNode":       "update",
	"Tree.flush":            "update",
	"Tree.flushBatch":       "update",
	"NodeRef.SetGlobal":     "external",
	"NodeRef.SetLocal":      "external",
	"NodeRef.SetMAC":        "external",
	"Tree.SetNodeFromBytes": "external",
	"Tree.SetRootCounter":   "external",
	"Tree.rebind":           "external",
	"Deserialize":           "fresh",
	"Tree.Clone":            "fresh",
	"Tree.setNodeFromBytes": "raw",
}

func TestMACInputWriters(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	field := func(e ast.Expr, names ...string) bool { // e is x.<one of names>
		sel, ok := e.(*ast.SelectorExpr)
		return ok && slices.Contains(names, sel.Sel.Name)
	}
	written := func(e ast.Expr) bool { // e as an assignment target or the first argument of copy/clear
		for {
			switch x := e.(type) {
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.SliceExpr:
				e = x.X
				continue
			}
			break
		}
		return field(e, "ctr", "mac", "rootCtr", "bindEng", "bindGU")
	}
	found := map[string]bool{}
	for _, f := range pkgs["tree"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				name = recv.(*ast.Ident).Name + "." + name
			}
			firstWrite := token.NoPos
			calls := map[string]token.Pos{} // callee -> its first call
			var verifiedCleared bool
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				write := false
				switch x := n.(type) {
				case *ast.AssignStmt:
					write = slices.ContainsFunc(x.Lhs, written)
				case *ast.IncDecStmt:
					write = written(x.X)
				case *ast.CallExpr:
					callee := ""
					switch fun := x.Fun.(type) {
					case *ast.Ident:
						callee = fun.Name
					case *ast.SelectorExpr:
						callee = fun.Sel.Name
					}
					if _, seen := calls[callee]; !seen {
						calls[callee] = x.Pos()
					}
					write = (callee == "copy" || callee == "clear") && written(x.Args[0]) ||
						macInputWriters["Tree."+callee] == "raw"
					verifiedCleared = verifiedCleared || callee == "clear" && field(x.Args[0], "verified")
				}
				if write && firstWrite == token.NoPos {
					firstWrite = n.Pos()
				}
				return true
			})
			if name == "Tree.settle" && (calls["flushAll"] == token.NoPos || !verifiedCleared) {
				t.Errorf("settle no longer calls flushAll and clears verified")
			}
			if firstWrite == token.NoPos {
				continue
			}
			found[name] = true
			before := func(callee string) bool { p, ok := calls[callee]; return ok && p < firstWrite }
			switch kind := macInputWriters[name]; {
			case kind == "external" && !before("settle"):
				t.Errorf("%s (%s) is an external writer but does not call settle before its first write", name, fset.Position(firstWrite))
			case kind == "fresh" && !before("newTree"):
				t.Errorf("%s (%s) is listed as writing a fresh tree but does not call newTree before its first write", name, fset.Position(firstWrite))
			}
		}
	}
	listed := slices.Sorted(maps.Keys(macInputWriters))
	if got := slices.Sorted(maps.Keys(found)); !slices.Equal(got, listed) {
		t.Errorf("functions writing a MAC input:\n  found  %v\n  listed %v\nclassify the difference in macInputWriters", got, listed)
	}
}
