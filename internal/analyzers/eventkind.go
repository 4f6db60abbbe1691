package analyzers

import (
	"go/ast"
	"go/types"
)

// EventKind requires every security-ledger record site to name its event
// kind as a compile-time constant. The ledger is an audit surface: its
// vocabulary is closed (the exporter, trace.ParseEvents and through it
// mmt-stat all go through one name table), and the exporter
// writes whatever kind value it is handed. A kind computed at runtime —
// from an error value, an index, or arithmetic — can silently step
// outside that vocabulary or, worse, misclassify a rejection, and no
// schema check downstream can tell. Classification logic must therefore
// branch explicitly (one constant kind per verdict branch), which is
// also what keeps the reject paths reviewable.
var EventKind = &Analyzer{
	Name: "eventkind",
	ID:   "MMT007",
	Doc: "require (*trace.Probe).Event call sites to pass a compile-time " +
		"constant event kind; runtime-computed kinds can leave the ledger's " +
		"closed vocabulary or misclassify a security verdict",
	Run: runEventKind,
}

func runEventKind(pass *Pass) {
	pass.forEachCall("mmt/internal/trace", []string{"Event"}, func(u *PackageUnit, call *ast.CallExpr, callee *types.Func) {
		if callee.Signature().Recv() == nil || len(call.Args) == 0 {
			return
		}
		kind := call.Args[0]
		if tv, ok := u.TypesInfo.Types[kind]; !ok || tv.Value == nil {
			pass.Reportf(kind.Pos(), "event kind must be a compile-time constant "+
				"(trace.Ev*); classify verdicts with explicit branches, not computed kinds")
		}
	})
}
