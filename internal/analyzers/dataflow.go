package analyzers

// Shared plumbing for noalloc, the one CFG-based analyzer: expression
// canonicalisation for its messages, and the module-wide function index
// that lets it walk the static call graph across packages.

import (
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// canonExpr renders e in canonical single-line form.
func canonExpr(fset *token.FileSet, e ast.Expr) string {
	var sb strings.Builder
	cfg := printer.Config{Mode: printer.RawFormat}
	if err := cfg.Fprint(&sb, fset, e); err != nil {
		return ""
	}
	return strings.Join(strings.Fields(sb.String()), " ")
}

// funcKey identifies a function declaration across packages in a form
// computable both from a source FuncDecl and from an export-data
// *types.Func: package path, receiver type name (empty for plain
// functions), function name.
type funcKey struct {
	pkg  string
	recv string
	name string
}

func (k funcKey) String() string {
	if k.recv != "" {
		return k.pkg + ".(" + k.recv + ")." + k.name
	}
	return k.pkg + "." + k.name
}

// namedRecv unwraps a receiver or operand type to its defining
// *types.TypeName: pointers are dereferenced and aliases resolved.
func namedRecv(t types.Type) *types.TypeName {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// isNamed reports whether t is the named type pkgPath.name or a pointer
// to it.
func isNamed(t types.Type, pkgPath, name string) bool {
	tn := namedRecv(t)
	return tn != nil && tn.Name() == name && tn.Pkg() != nil && tn.Pkg().Path() == pkgPath
}

// keyOfFunc computes the funcKey of a resolved function object.
func keyOfFunc(fn *types.Func) (funcKey, bool) {
	if fn == nil || fn.Pkg() == nil {
		return funcKey{}, false
	}
	k := funcKey{pkg: fn.Pkg().Path(), name: fn.Name()}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return funcKey{}, false
	}
	if recv := sig.Recv(); recv != nil {
		tn := namedRecv(recv.Type())
		if tn == nil {
			// Interface method or unnameable receiver: not a unique decl.
			return funcKey{}, false
		}
		k.recv = tn.Name()
	}
	return k, true
}

// indexedFunc is one function declaration with its owning unit.
type indexedFunc struct {
	decl *ast.FuncDecl
	unit *PackageUnit
}

// funcIndex maps funcKeys to declarations across every loaded package.
type funcIndex struct {
	funcs map[funcKey]*indexedFunc
	// order lists the keys in deterministic (position) order.
	order []funcKey
}

// buildFuncIndex indexes every function declaration in units, skipping
// _test.go files (invariants bind non-test code only).
func buildFuncIndex(fset *token.FileSet, units []*PackageUnit) *funcIndex {
	idx := &funcIndex{funcs: map[funcKey]*indexedFunc{}}
	for _, unit := range units {
		for _, f := range unit.Files {
			if strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := unit.TypesInfo.Defs[fd.Name].(*types.Func)
				key, ok := keyOfFunc(obj)
				if !ok {
					continue
				}
				if _, dup := idx.funcs[key]; !dup {
					idx.order = append(idx.order, key)
				}
				idx.funcs[key] = &indexedFunc{decl: fd, unit: unit}
			}
		}
	}
	return idx
}

// lookupCall resolves a static call in unit to its indexed declaration.
// Dynamic calls (function values, interface methods) and functions whose
// packages were not loaded resolve to nil.
func (idx *funcIndex) lookupCall(unit *PackageUnit, call *ast.CallExpr) (*indexedFunc, funcKey) {
	fn := funcObj(unit.TypesInfo, call)
	key, ok := keyOfFunc(fn)
	if !ok {
		return nil, funcKey{}
	}
	return idx.funcs[key], key
}

// isErrorReturnFunc builds the cold-path classifier for a function: a
// return is an error return when the function's last result is an error
// and the returned value is not the nil literal. Naked returns count as
// success (conservative: named error results are rare here and a naked
// error return would only widen the hot region).
func isErrorReturnFunc(unit *PackageUnit, decl *ast.FuncDecl) func(*ast.ReturnStmt) bool {
	lastIsError := false
	if decl.Type.Results != nil && len(decl.Type.Results.List) > 0 {
		fields := decl.Type.Results.List
		last := fields[len(fields)-1]
		if t := unit.TypesInfo.Types[last.Type].Type; t != nil {
			lastIsError = types.Identical(t, types.Universe.Lookup("error").Type())
		}
	}
	return func(ret *ast.ReturnStmt) bool {
		if !lastIsError || len(ret.Results) == 0 {
			return false
		}
		last := ast.Unparen(ret.Results[len(ret.Results)-1])
		if id, ok := last.(*ast.Ident); ok && id.Name == "nil" {
			return false
		}
		return true
	}
}
