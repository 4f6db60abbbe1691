package analyzers

// The phasecharge analyzer turns the charge-mirror contract into a
// compile-time guarantee: every sim.Clock.AdvanceCycles charge site must
// be mirrored into a trace phase accumulator (trace.Probe.AddCycles) on
// every CFG path leading to it, with the same cost expression — so the
// per-phase cycle breakdown always sums to the clock totals, which is
// what makes the reproduced figures' phase decompositions trustworthy.
//
// The analysis is a forward must-dataflow over each function's CFG. The
// facts are canonical renderings of cost expressions known to be
// mirrored at this point:
//
//   - probe.AddCycles(ph, X) generates the fact X and every top-level
//     +-summand of X. Generating a fact that is already live is itself a
//     finding ("double attribution": the same cost would be counted in
//     two phases or twice in one).
//   - an assignment x := A + B whose summands are all mirrored
//     propagates the fact to x (the `cost := a + b + c` idiom).
//   - any other assignment to x kills every fact mentioning x; an
//     assignment through a selector or index kills facts containing the
//     exact rendering of that left-hand side.
//   - clock.AdvanceCycles(X) requires every +-summand of X to be a live
//     fact, then consumes the matched facts (a mirror attributes one
//     charge, not arbitrarily many).
//
// The join over predecessors is intersection: a charge mirrored on only
// one branch is a finding at the charge site. Function declarations and
// function literals are analyzed independently (the mirror must be in
// the same function as the charge — the contract reviewers check by
// eye). sim.Clock.Advance/SyncTo sites are out of scope: Advance is
// time-based plumbing used by tests and SyncTo models message arrival,
// neither is a cost charge.

import (
	"go/ast"
	"go/token"
)

var PhaseCharge = &Analyzer{
	Name: "phasecharge",
	ID:   "MMT010",
	Doc: "every sim.Clock.AdvanceCycles charge must be mirrored into exactly " +
		"one trace phase (Probe.AddCycles of the same cost expression) on all " +
		"CFG paths reaching it",
	Run: func(pass *Pass) {
		pass.forEachBody(func(u *PackageUnit, body *ast.BlockStmt) { checkChargeBody(pass, u, body) })
	},
}

func checkChargeBody(pass *Pass, unit *PackageUnit, body *ast.BlockStmt) {
	cfg := buildCFG(body, unit.TypesInfo)
	transfer := func(blk *cfgBlock, in factSet) factSet {
		return chargeTransfer(pass, unit, blk, in, false)
	}
	ins := solveForward(cfg, transfer)
	for _, blk := range cfg.blocks {
		in, ok := ins[blk]
		if !ok {
			continue
		}
		chargeTransfer(pass, unit, blk, in, true)
	}
}

// chargeTransfer threads the mirrored-facts set through one block. With
// report=true (the converged pass) it emits diagnostics.
func chargeTransfer(pass *Pass, unit *PackageUnit, blk *cfgBlock, in factSet, report bool) factSet {
	facts := in.clone()
	for _, node := range blk.nodes {
		chargeWalk(pass, unit, node, facts, report)
	}
	return facts
}

func chargeWalk(pass *Pass, unit *PackageUnit, node ast.Node, facts factSet, report bool) {
	switch n := node.(type) {
	case *ast.AssignStmt:
		// Calls in the RHS run before the assignment takes effect.
		for _, r := range n.Rhs {
			chargeWalkExpr(pass, unit, r, facts, report)
		}
		chargeAssign(pass, unit, n, facts)
	case *ast.IncDecStmt:
		chargeKill(pass, unit, n.X, facts)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						chargeWalkExpr(pass, unit, v, facts, report)
					}
					for _, name := range vs.Names {
						killFactsMentioning(facts, name.Name)
					}
				}
			}
		}
	default:
		if e, ok := node.(ast.Expr); ok {
			chargeWalkExpr(pass, unit, e, facts, report)
		} else if s, ok := node.(ast.Stmt); ok {
			// Leaf statements holding expressions (ExprStmt, SendStmt,
			// ReturnStmt, DeferStmt, GoStmt, …).
			ast.Inspect(s, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.FuncLit:
					return false
				case *ast.AssignStmt:
					for _, r := range m.Rhs {
						chargeWalkExpr(pass, unit, r, facts, report)
					}
					chargeAssign(pass, unit, m, facts)
					return false
				case *ast.CallExpr:
					chargeCall(pass, unit, m, facts, report)
					return false
				}
				return true
			})
		}
	}
}

func chargeWalkExpr(pass *Pass, unit *PackageUnit, e ast.Expr, facts factSet, report bool) {
	ast.Inspect(e, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			chargeCall(pass, unit, m, facts, report)
			return false
		}
		return true
	})
}

// chargeCall handles the two tracked call shapes; nested argument calls
// are processed first (inner expressions evaluate first).
func chargeCall(pass *Pass, unit *PackageUnit, call *ast.CallExpr, facts factSet, report bool) {
	for _, a := range call.Args {
		chargeWalkExpr(pass, unit, a, facts, report)
	}
	if se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		chargeWalkExpr(pass, unit, se.X, facts, report)
	}
	switch {
	case isMethodCall(unit, call, "mmt/internal/trace", "Probe", "AddCycles") && len(call.Args) == 2:
		arg := call.Args[1]
		canon := canonExpr(pass.Fset, arg)
		if canon == "" {
			return
		}
		gen := map[string]bool{canon: true}
		for _, t := range addTerms(arg) {
			if c := canonExpr(pass.Fset, t); c != "" {
				gen[c] = true
			}
		}
		for c := range gen {
			if facts[c] && report {
				pass.Reportf(call.Pos(), "cost %s is already mirrored into a phase on this path (double attribution)", c)
			}
		}
		for c := range gen {
			facts[c] = true
		}
	case isMethodCall(unit, call, "mmt/internal/sim", "Clock", "AdvanceCycles") && len(call.Args) == 1:
		arg := call.Args[0]
		missing := false
		var matched []string
		for _, t := range addTerms(arg) {
			c := canonExpr(pass.Fset, t)
			if facts[c] {
				matched = append(matched, c)
				continue
			}
			missing = true
			if report {
				pass.Reportf(call.Pos(), "cycle charge %s is not mirrored into a trace phase on every path to this AdvanceCycles", c)
			}
		}
		if !missing {
			for _, c := range matched {
				delete(facts, c) // one mirror attributes one charge
			}
		}
	}
}

// chargeAssign applies an assignment's kill set, then the alias rule:
// x := A + B with all summands mirrored makes x mirrored.
func chargeAssign(pass *Pass, unit *PackageUnit, as *ast.AssignStmt, facts factSet) {
	aliased := map[string]bool{}
	if len(as.Lhs) == len(as.Rhs) && as.Tok != token.ADD_ASSIGN {
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			all := true
			for _, t := range addTerms(as.Rhs[i]) {
				if !facts[canonExpr(pass.Fset, t)] {
					all = false
					break
				}
			}
			if all {
				aliased[id.Name] = true
			}
		}
	}
	for _, lhs := range as.Lhs {
		chargeKill(pass, unit, lhs, facts)
	}
	for name := range aliased {
		facts[name] = true
	}
}

// chargeKill removes facts invalidated by writing through lhs.
func chargeKill(pass *Pass, unit *PackageUnit, lhs ast.Expr, facts factSet) {
	lhs = ast.Unparen(lhs)
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name != "_" {
			killFactsMentioning(facts, l.Name)
		}
	default:
		// Selector/index/star targets: kill facts containing the exact
		// rendering of the written location.
		canon := canonExpr(pass.Fset, lhs)
		if canon == "" {
			return
		}
		for f := range facts {
			if containsToken(f, canon) {
				delete(facts, f)
			}
		}
	}
}

// killFactsMentioning drops every fact whose identifier tokens include
// name.
func killFactsMentioning(facts factSet, name string) {
	for f := range facts {
		if identTokens(f)[name] {
			delete(facts, f)
		}
	}
}

// containsToken reports whether canonical rendering hay contains needle
// at a token boundary: c.stats.Cycles does not match inside
// c.stats.CyclesTotal or ac.stats.Cycles, but writing c.prof does
// invalidate c.prof.DRAMAccess (a trailing '.' extends the written
// location, a trailing identifier byte does not).
func containsToken(hay, needle string) bool {
	isIdentByte := func(b byte) bool {
		return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
	}
	for i := 0; i+len(needle) <= len(hay); i++ {
		if hay[i:i+len(needle)] != needle {
			continue
		}
		if i > 0 && (isIdentByte(hay[i-1]) || hay[i-1] == '.') {
			continue
		}
		if end := i + len(needle); end < len(hay) && isIdentByte(hay[end]) {
			continue
		}
		return true
	}
	return false
}

// isMethodCall reports whether call invokes pkgPath.(Type).name (on a
// value or pointer receiver).
func isMethodCall(unit *PackageUnit, call *ast.CallExpr, pkgPath, typeName, name string) bool {
	fn := funcObj(unit.TypesInfo, call)
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	recv := fn.Signature().Recv()
	return recv != nil && isNamed(recv.Type(), pkgPath, typeName)
}
