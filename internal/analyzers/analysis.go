// Package analyzers is the mmt-vet static-analysis suite: the rules
// that machine-enforce the repository's determinism and crypto-safety
// invariants.
//
// Every figure and table this repository reproduces must be a pure
// function of the seed and the internal/sim clock, and every security
// claim rests on authentication code in internal/crypt and
// internal/channel. Both properties are one careless diff away from
// silently breaking, so they are enforced by analysis rather than by
// reviewer vigilance.
//
// One rule is one Analyzer value, documented where it is declared; All
// is the suite and `mmt-vet -list` prints it. Every rule has the same
// shape: Run receives one Pass holding every loaded package and walks
// the in-scope ones with Pass.files or Pass.forEachCall.
//
// IDs MMT008 (noalloc), MMT009 (lockorder), MMT010 (phasecharge) and
// MMT012 (samplerwindow) are retired and never reused. The steady-state
// paths' zero allocations are asserted by the testing.AllocsPerRun tests
// that run them, which catch every allocation the rule caught and the
// ones its cold-path guess missed; the module's mutexes are leaves — no
// code path holds two different ones — so `go test -race`, a tier-1
// target, is the concurrency gate; trace.Probe.Charge books a cost to its
// phase and the clock in one call, so the two cannot disagree, and
// simclock confines the clock's AdvanceCycles to it; and a sampler window
// that is not a power of two is refused at run time by
// trace.Sink.EnableSeries wherever it comes from.
//
// The framework borrows the vocabulary of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is self-contained: the module has no
// external dependencies, so the driver loads packages with `go list
// -export` and typechecks them with go/types directly.
//
// A finding can be suppressed with a justifying comment on the same
// line (or the line above):
//
//	//mmt:allow nopanic: bounds guard; mirrors built-in slice indexing
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"iter"
	"slices"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in output and in //mmt:allow comments.
	Name string
	// ID is the stable machine-readable diagnostic ID (MMT001…) used in
	// -json output. IDs are append-only: an analyzer keeps its ID forever
	// so CI baselines and suppressions stay comparable.
	ID string
	// Doc is the one-paragraph description shown by mmt-vet -list.
	Doc string
	// Run applies the analyzer to every package of the pass.
	Run func(*Pass)
}

// PackageUnit is one typechecked package.
type PackageUnit struct {
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Pass carries every loaded package to an analyzer: all packages the
// run's patterns matched, or the one fixture package under analysistest.
type Pass struct {
	Fset  *token.FileSet
	Units []*PackageUnit
	// Report records a finding unless it lies in a _test.go file or an
	// //mmt:allow comment for this analyzer covers it.
	Report func(Diagnostic)
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// files yields every file of every in-scope package with its unit.
func (p *Pass) files() iter.Seq2[*PackageUnit, *ast.File] {
	return func(yield func(*PackageUnit, *ast.File) bool) {
		for _, u := range p.Units {
			if !inScope(u.Pkg.Path()) {
				continue
			}
			for _, f := range u.Files {
				if !yield(u, f) {
					return
				}
			}
		}
	}
}

// forEachCall calls fn at every in-scope call whose callee is a function
// or method of package pkgPath named one of names.
func (p *Pass) forEachCall(pkgPath string, names []string, fn func(u *PackageUnit, call *ast.CallExpr, callee *types.Func)) {
	for u, f := range p.files() {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				callee := funcObj(u.TypesInfo, call)
				if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == pkgPath && slices.Contains(names, callee.Name()) {
					fn(u, call, callee)
				}
			}
			return true
		})
	}
}

// forEachBody calls fn with the body of every in-scope function
// declaration and function literal. A literal nested inside a body is
// visited again on its own.
func (p *Pass) forEachBody(fn func(u *PackageUnit, body *ast.BlockStmt)) {
	for u, f := range p.files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(u, n.Body)
				}
			case *ast.FuncLit:
				fn(u, n.Body)
			}
			return true
		})
	}
}

// All returns the full mmt-vet suite in stable order. Diagnostic IDs are
// append-only; MMT008, MMT009, MMT010 and MMT012 are retired (see the
// package comment).
func All() []*Analyzer {
	return []*Analyzer{
		SimClock,      // MMT001
		CryptoCompare, // MMT002
		CheckVerify,   // MMT003
		NoPanic,       // MMT004
		MapOrder,      // MMT005
		ParClock,      // MMT006
		EventKind,     // MMT007
		TraceCtx,      // MMT011
	}
}

// UnusedAllowID is the pseudo-rule ID of the suppression audit: an
// //mmt:allow comment that suppressed nothing in a full run is itself a
// finding (analyzer name "unusedallow").
const UnusedAllowID = "MMT900"

// analyzerID resolves an analyzer name to its stable diagnostic ID.
func analyzerID(name string) string {
	if name == "unusedallow" {
		return UnusedAllowID
	}
	for _, a := range All() {
		if a.Name == name {
			return a.ID
		}
	}
	return "MMT000"
}

// inScope reports whether a package path is simulation/library code the
// invariants apply to: everything under mmt/internal/ except the
// analysis tooling itself, which is host-side and never contributes to
// figures or security claims.
func inScope(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, "mmt/internal/") &&
		!strings.HasPrefix(pkgPath, "mmt/internal/analyzers")
}

// isBuiltinCall reports whether call invokes the builtin function name.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// funcObj resolves a call's callee to its *types.Func, or nil.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
