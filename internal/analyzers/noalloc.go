package analyzers

// The noalloc analyzer statically proves the repository's 0-allocs/op
// hot-path claims. A function whose doc comment carries a line
//
//	//mmt:hotpath
//
// promises that its steady-state execution performs no heap allocation —
// the modelled hardware data path certainly does not — and noalloc
// verifies the promise over the function and everything it statically
// calls within the module.
//
// Per function it builds the CFG and discards cold blocks: blocks from
// which every path ends in a panic or an error return. Error paths model
// tamper detection and caller bugs; the hardware never takes them in
// steady state, and the runtime benchmarks that cross-check this
// analyzer (BenchmarkReadInto et al.) never take them either. Hot blocks
// are then scanned for allocation sites:
//
//   - make, new, the builtin append (unless appending into reserved
//     capacity, below), slice/map/pointer composite literals
//   - string concatenation, []byte/string/[]rune conversions
//   - closures that capture variables, method values, go statements
//   - map assignment (rehash may allocate)
//   - interface boxing: passing, assigning or returning a concrete
//     non-pointer value where an interface is expected
//
// Calls from hot code are classified: static calls to module functions
// are traversed recursively (suppressing a call site with //mmt:allow
// noalloc prunes the walk — the idiom for amortized or slow-path
// callees); calls into a small whitelist of allocation-free stdlib
// packages (encoding/binary, math, math/bits, crypto/subtle, sync,
// sync/atomic) pass; any other stdlib call, dynamic function value or
// interface method call is a finding — except methods of crypto/cipher
// interfaces, whose stdlib implementations are allocation-free after
// construction and which the scratch-buffer design exists to serve.
//
// Reserved capacity: `s := buf[:0]` followed by `s = append(s, …)` is
// the caller-owned scratch idiom — append fills capacity reserved
// elsewhere. noalloc trusts the reslice and exempts such appends; the
// allocation site is the guarded make that reserves the capacity, which
// is still flagged (and suppressed with a justification where the
// amortization argument lives). The benchmarks remain the dynamic
// cross-check that the reserved capacity really is enough.
//
// Cross-package traversal sees only packages matched by the run's
// patterns: full coverage therefore requires running over ./..., which
// CI does. Callees in unmatched packages are skipped silently.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var NoAlloc = &Analyzer{
	Name: "noalloc",
	ID:   "MMT008",
	Doc: "functions annotated //mmt:hotpath (and all module functions they " +
		"statically call) must contain no allocation sites on any path that " +
		"can reach a success exit; proves the 0-allocs/op benchmarks statically",
	Run: runNoAlloc,
}

// noallocStdlibOK lists stdlib packages whose exported functions do not
// allocate (for the call shapes this codebase uses).
var noallocStdlibOK = map[string]bool{
	"encoding/binary": true,
	"math":            true,
	"math/bits":       true,
	"crypto/subtle":   true,
	"sync":            true,
	"sync/atomic":     true,
}

// noallocIfaceOK lists packages whose interface methods are trusted not
// to allocate: cipher.Block.Encrypt/Decrypt write into caller buffers.
var noallocIfaceOK = map[string]bool{
	"crypto/cipher": true,
}

type noallocChecker struct {
	pass *Pass
	idx  *funcIndex
	// visited functions, so shared callees are scanned once.
	visited map[funcKey]bool
	// reservedNow is the reserved-capacity locals of the function being
	// scanned (saved/restored around recursive traversal).
	reservedNow map[types.Object]bool
}

func runNoAlloc(pass *Pass) {
	c := &noallocChecker{
		pass:    pass,
		idx:     buildFuncIndex(pass.Fset, pass.Units),
		visited: map[funcKey]bool{},
	}
	// Deterministic worklist: roots in index (position) order.
	for _, key := range c.idx.order {
		f := c.idx.funcs[key]
		if !inScope(f.unit.Pkg.Path()) || !isHotPath(f.decl) {
			continue
		}
		c.check(key, f)
	}
}

// isHotPath reports whether decl's doc comment carries //mmt:hotpath.
func isHotPath(decl *ast.FuncDecl) bool {
	return hasDocDirective(decl, "//mmt:hotpath")
}

// isColdPath reports whether decl's doc comment carries //mmt:coldpath —
// the declaration-side opt-out: the function runs off the critical path
// (checkpointing, persistence, teardown) and the hot-path walk does not
// descend into it, however it is reached.
func isColdPath(decl *ast.FuncDecl) bool {
	return hasDocDirective(decl, "//mmt:coldpath")
}

func hasDocDirective(decl *ast.FuncDecl, directive string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, ln := range decl.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(ln.Text), directive) {
			return true
		}
	}
	return false
}

// check scans one function's hot blocks and recurses into module callees.
func (c *noallocChecker) check(key funcKey, f *indexedFunc) {
	if c.visited[key] {
		return
	}
	c.visited[key] = true
	info := f.unit.TypesInfo
	cfg := buildCFG(f.decl.Body, info)
	hot := cfg.hotBlocks(isErrorReturnFunc(f.unit, f.decl))

	// Collect call positions first: a method selector in call position is
	// a call, not an allocating method value.
	callFuns := map[ast.Expr]bool{}
	reserved := map[types.Object]bool{} // locals holding [:0]-style reslices
	for _, blk := range cfg.blocks {
		for _, n := range blk.nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false
				case *ast.CallExpr:
					callFuns[ast.Unparen(n.Fun)] = true
				case *ast.AssignStmt:
					c.trackReserved(f.unit, n, reserved)
				}
				return true
			})
		}
	}

	prev := c.reservedNow
	c.reservedNow = reserved
	for _, blk := range cfg.blocks {
		if !hot[blk] {
			continue
		}
		for _, n := range blk.nodes {
			c.scanNode(key, f, n, callFuns)
		}
	}
	c.reservedNow = prev
}

// trackReserved records locals assigned a capacity-reserving reslice:
// x := buf[:0] (any operand) or x := arr[i:j] of an array. Appending to
// such a local is staging into pre-reserved storage, not growth.
func (c *noallocChecker) trackReserved(unit *PackageUnit, as *ast.AssignStmt, reserved map[types.Object]bool) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := unit.TypesInfo.Defs[id]
		if obj == nil {
			obj = unit.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		if c.isReservedExpr(unit, as.Rhs[i], reserved) {
			reserved[obj] = true
		}
	}
}

func (c *noallocChecker) isReservedExpr(unit *PackageUnit, e ast.Expr, reserved map[types.Object]bool) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.SliceExpr:
		// Slicing an array (or *array) never allocates and aliases the
		// array's storage; x[:0] of anything keeps existing capacity.
		opType := unit.TypesInfo.Types[e.X].Type
		if opType != nil {
			t := types.Unalias(opType)
			if p, ok := t.(*types.Pointer); ok {
				t = types.Unalias(p.Elem())
			}
			if _, ok := t.Underlying().(*types.Array); ok {
				return true
			}
		}
		if e.Low == nil && e.High != nil {
			if lit, ok := ast.Unparen(e.High).(*ast.BasicLit); ok && lit.Value == "0" {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		// x := append(y, …) with y reserved keeps the reservation.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
			return c.isReservedVar(unit, e.Args[0], reserved)
		}
	case *ast.Ident:
		return c.isReservedVar(unit, e, reserved)
	}
	return false
}

func (c *noallocChecker) isReservedVar(unit *PackageUnit, e ast.Expr, reserved map[types.Object]bool) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := unit.TypesInfo.Uses[id]
	if obj == nil {
		obj = unit.TypesInfo.Defs[id]
	}
	return obj != nil && reserved[obj]
}

func (c *noallocChecker) scanNode(key funcKey, f *indexedFunc, node ast.Node, callFuns map[ast.Expr]bool) {
	unit := f.unit
	info := unit.TypesInfo
	where := key.String()
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if capturesOuter(unit, n) {
				c.pass.Reportf(n.Pos(), "hot path %s: closure captures outer variables and allocates", where)
			}
			return false

		case *ast.GoStmt:
			c.pass.Reportf(n.Pos(), "hot path %s: go statement allocates a goroutine", where)
			return false

		case *ast.CompositeLit:
			t := info.Types[n].Type
			if t == nil {
				return true
			}
			switch types.Unalias(t).Underlying().(type) {
			case *types.Slice:
				c.pass.Reportf(n.Pos(), "hot path %s: slice literal allocates", where)
			case *types.Map:
				c.pass.Reportf(n.Pos(), "hot path %s: map literal allocates", where)
			}
			return true

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.pass.Reportf(n.Pos(), "hot path %s: &composite literal allocates", where)
				}
			}
			return true

		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := info.Types[n].Type; t != nil {
					if b, ok := types.Unalias(t).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						if cv := info.Types[n]; cv.Value == nil { // constant folding is free
							c.pass.Reportf(n.Pos(), "hot path %s: string concatenation allocates", where)
						}
					}
				}
			}
			return true

		case *ast.AssignStmt:
			c.checkAssign(where, unit, n)
			return true

		case *ast.ReturnStmt:
			c.checkReturn(where, f, n)
			return true

		case *ast.SelectorExpr:
			if callFuns[n] {
				return true
			}
			if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
				c.pass.Reportf(n.Pos(), "hot path %s: method value allocates a bound-method closure", where)
			}
			return true

		case *ast.CallExpr:
			c.checkCall(key, f, n)
			return true
		}
		return true
	})
}

// checkAssign flags map writes and interface boxing in assignments.
func (c *noallocChecker) checkAssign(where string, unit *PackageUnit, as *ast.AssignStmt) {
	info := unit.TypesInfo
	for _, lhs := range as.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if t := info.Types[ix.X].Type; t != nil {
				if _, ok := types.Unalias(t).Underlying().(*types.Map); ok {
					c.pass.Reportf(lhs.Pos(), "hot path %s: map assignment may rehash and allocate", where)
				}
			}
		}
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i, rhs := range as.Rhs {
			var lhsType types.Type
			if t := info.Types[as.Lhs[i]].Type; t != nil {
				lhsType = t
			} else if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					lhsType = obj.Type()
				}
			}
			c.checkBoxing(where, unit, rhs, lhsType)
		}
	}
}

func (c *noallocChecker) checkReturn(where string, f *indexedFunc, ret *ast.ReturnStmt) {
	results := f.decl.Type.Results
	if results == nil || len(ret.Results) == 0 {
		return
	}
	var resultTypes []types.Type
	for _, field := range results.List {
		t := f.unit.TypesInfo.Types[field.Type].Type
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(ret.Results) != len(resultTypes) {
		return // f() returning multiple values; boxing handled at the call
	}
	for i, r := range ret.Results {
		c.checkBoxing(where, f.unit, r, resultTypes[i])
	}
}

// checkBoxing flags storing a concrete non-pointer-shaped value into an
// interface, which heap-allocates the value.
func (c *noallocChecker) checkBoxing(where string, unit *PackageUnit, e ast.Expr, target types.Type) {
	if target == nil || !types.IsInterface(types.Unalias(target)) {
		return
	}
	tv := unit.TypesInfo.Types[e]
	if tv.Type == nil || tv.Value != nil || tv.IsNil() {
		return // constants and nil box without allocating
	}
	src := types.Unalias(tv.Type)
	if types.IsInterface(src) {
		return
	}
	switch src.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: stored directly in the iface word
	}
	c.pass.Reportf(e.Pos(), "hot path %s: storing %s in an interface allocates", where, tv.Type)
}

func (c *noallocChecker) checkCall(key funcKey, f *indexedFunc, call *ast.CallExpr) {
	unit := f.unit
	info := unit.TypesInfo
	where := key.String()

	// Conversions.
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() && len(call.Args) == 1 {
		if conversionAllocates(info, call) {
			c.pass.Reportf(call.Pos(), "hot path %s: conversion %s allocates", where, canonExpr(c.pass.Fset, call.Fun))
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				c.pass.Reportf(call.Pos(), "hot path %s: make allocates", where)
			case "new":
				c.pass.Reportf(call.Pos(), "hot path %s: new allocates", where)
			case "append":
				if len(call.Args) > 0 && !c.appendReserved(unit, call) {
					c.pass.Reportf(call.Pos(), "hot path %s: append may grow and allocate", where)
				}
			}
			return
		}
	}

	fn := funcObj(info, call)
	if fn == nil {
		// Call through a function value (or method expression): the target
		// is unknown statically.
		if c.pass.Suppressed(call.Pos()) {
			return
		}
		c.pass.Reportf(call.Pos(), "hot path %s: call through function value cannot be statically verified", where)
		return
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return // error.Error etc. on universe types
	}

	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			if noallocIfaceOK[pkg.Path()] {
				return
			}
			if c.pass.Suppressed(call.Pos()) {
				return
			}
			c.pass.Reportf(call.Pos(), "hot path %s: dynamic call to %s.%s cannot be statically verified", where, pkg.Path(), fn.Name())
			return
		}
	}

	if strings.HasPrefix(pkg.Path(), "mmt/") {
		// Module callee: traverse, unless the call site is suppressed —
		// the pruning idiom for amortized/slow-path callees — or the callee
		// itself is declared cold (//mmt:coldpath), the idiom for rare
		// maintenance work like checkpoint I/O reached from hot code.
		if c.pass.Suppressed(call.Pos()) {
			return
		}
		callee, calleeKey := c.idx.lookupCall(unit, call)
		if callee != nil && !isColdPath(callee.decl) {
			c.check(calleeKey, callee)
		}
		return
	}

	if noallocStdlibOK[pkg.Path()] {
		return
	}
	if c.pass.Suppressed(call.Pos()) {
		return
	}
	c.pass.Reportf(call.Pos(), "hot path %s: call to %s.%s may allocate", where, pkg.Path(), fn.Name())
}

// appendReserved reports whether an append targets reserved capacity:
// the first argument is a reserved local or itself a [:0]/array reslice.
func (c *noallocChecker) appendReserved(unit *PackageUnit, call *ast.CallExpr) bool {
	arg := ast.Unparen(call.Args[0])
	if se, ok := arg.(*ast.SliceExpr); ok {
		return c.isReservedExpr(unit, se, c.reservedNow)
	}
	return c.isReservedVar(unit, arg, c.reservedNow)
}

// conversionAllocates reports whether a type conversion copies into
// fresh storage: string <-> []byte / []rune.
func conversionAllocates(info *types.Info, call *ast.CallExpr) bool {
	to := info.Types[call.Fun].Type
	from := info.Types[call.Args[0]].Type
	if to == nil || from == nil {
		return false
	}
	isStr := func(t types.Type) bool {
		b, ok := types.Unalias(t).Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := types.Unalias(t).Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := types.Unalias(s.Elem()).Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(from) && isByteOrRuneSlice(to)) || (isByteOrRuneSlice(from) && isStr(to))
}

// capturesOuter reports whether lit references variables declared
// outside it (excluding package-level objects): such closures allocate.
func capturesOuter(unit *PackageUnit, lit *ast.FuncLit) bool {
	info := unit.TypesInfo
	pkgScope := unit.Pkg.Scope()
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == pkgScope || v.Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
		}
		return true
	})
	return captured
}
