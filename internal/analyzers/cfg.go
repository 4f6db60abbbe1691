package analyzers

// Intra-procedural control-flow graphs for the dataflow analyzer
// (noalloc). The builder is syntax-directed and
// self-contained, mirroring the role golang.org/x/tools/go/cfg plays for
// upstream analyzers: one funcCFG per function body, blocks holding the
// statements and control sub-expressions executed in order, edges for
// every branch, loop, switch, select, goto and panic.
//
// Analyzers walk block.nodes with ast.Inspect; nested statement bodies
// are never stored in an outer block, so a node is visited exactly once
// across the whole graph. Function literals are NOT descended into —
// each literal gets its own CFG when (and if) an analyzer wants one.
//
// Deliberate simplifications, documented for analyzer authors:
//
//   - defer: deferred calls are recorded as ordinary statements at the
//     defer site, not replayed on exit edges, so a deferred allocation
//     is charged at the defer site for noalloc.
//   - panic terminates a block with no successors and marks it, so paths
//     ending in panic can be classified as failure exits.
//   - recover is ignored: a function that panics is assumed not to
//     resume normal control flow.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// cfgBlock is one basic block: nodes executed in order, then a transfer
// to one of succs (or function exit when succs is empty).
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []*cfgBlock
	preds int
	// ret is set when the block ends in an explicit return.
	ret *ast.ReturnStmt
	// panics is set when the block ends in a call to panic.
	panics bool
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	entry  *cfgBlock
	blocks []*cfgBlock
}

// breakCtx is one enclosing breakable construct (for, range, switch,
// type switch, select). cont is nil for non-loops.
type breakCtx struct {
	label string
	brk   *cfgBlock
	cont  *cfgBlock
}

type pendingGoto struct {
	from  *cfgBlock
	label string
}

type cfgBuilder struct {
	blocks       []*cfgBlock
	info         *types.Info
	breakables   []breakCtx
	fallthroughs []*cfgBlock // innermost switch's next-clause target
	labels       map[string]*cfgBlock
	gotos        []pendingGoto
	pendingLabel string
}

// buildCFG constructs the CFG of body. info resolves which calls are the
// builtin panic, the one call that never returns.
func buildCFG(body *ast.BlockStmt, info *types.Info) *funcCFG {
	b := &cfgBuilder{info: info, labels: map[string]*cfgBlock{}}
	entry := b.newBlock()
	end := b.stmtList(body.List, entry)
	_ = end // a non-nil end is the implicit-return exit block
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			b.edge(g.from, target)
		}
	}
	return &funcCFG{entry: entry, blocks: b.blocks}
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.blocks)}
	b.blocks = append(b.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
	to.preds++
}

// takeLabel consumes the label attached to the construct being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmtList(list []ast.Stmt, cur *cfgBlock) *cfgBlock {
	for _, s := range list {
		if cur == nil {
			// Statically unreachable code (after return/panic/branch).
			// It still gets blocks so labels inside stay resolvable via
			// goto; without an incoming edge the blocks simply never
			// become reachable from entry.
			cur = b.newBlock()
		}
		cur = b.stmt(s, cur)
	}
	return cur
}

// stmt appends s to cur and returns the block control continues in, or
// nil when control cannot fall through s.
func (b *cfgBuilder) stmt(s ast.Stmt, cur *cfgBlock) *cfgBlock {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(s.List, cur)

	case *ast.IfStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Cond)
		join := b.newBlock()
		then := b.newBlock()
		b.edge(cur, then)
		if end := b.stmtList(s.Body.List, then); end != nil {
			b.edge(end, join)
		}
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cur, els)
			if end := b.stmt(s.Else, els); end != nil {
				b.edge(end, join)
			}
		} else {
			b.edge(cur, join)
		}
		if join.preds == 0 {
			return nil
		}
		return join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		head := b.newBlock()
		b.edge(cur, head)
		if s.Cond != nil {
			head.nodes = append(head.nodes, s.Cond)
		}
		join := b.newBlock()
		if s.Cond != nil {
			b.edge(head, join)
		}
		body := b.newBlock()
		b.edge(head, body)
		cont := head
		var post *cfgBlock
		if s.Post != nil {
			post = b.newBlock()
			post.nodes = append(post.nodes, s.Post)
			b.edge(post, head)
			cont = post
		}
		b.breakables = append(b.breakables, breakCtx{label: label, brk: join, cont: cont})
		end := b.stmtList(s.Body.List, body)
		b.breakables = b.breakables[:len(b.breakables)-1]
		if end != nil {
			b.edge(end, cont)
		}
		if join.preds == 0 {
			return nil
		}
		return join

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.edge(cur, head)
		head.nodes = append(head.nodes, s.X)
		if s.Key != nil {
			head.nodes = append(head.nodes, s.Key)
		}
		if s.Value != nil {
			head.nodes = append(head.nodes, s.Value)
		}
		join := b.newBlock()
		b.edge(head, join)
		body := b.newBlock()
		b.edge(head, body)
		b.breakables = append(b.breakables, breakCtx{label: label, brk: join, cont: head})
		end := b.stmtList(s.Body.List, body)
		b.breakables = b.breakables[:len(b.breakables)-1]
		if end != nil {
			b.edge(end, head)
		}
		return join

	case *ast.SwitchStmt:
		return b.switchLike(cur, s.Init, s.Tag, nil, s.Body)

	case *ast.TypeSwitchStmt:
		return b.switchLike(cur, s.Init, nil, s.Assign, s.Body)

	case *ast.SelectStmt:
		label := b.takeLabel()
		join := b.newBlock()
		b.breakables = append(b.breakables, breakCtx{label: label, brk: join})
		for _, c := range s.Body.List {
			comm := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(cur, blk)
			if comm.Comm != nil {
				blk.nodes = append(blk.nodes, comm.Comm)
			}
			if end := b.stmtList(comm.Body, blk); end != nil {
				b.edge(end, join)
			}
		}
		b.breakables = b.breakables[:len(b.breakables)-1]
		if join.preds == 0 {
			return nil
		}
		return join

	case *ast.LabeledStmt:
		target := b.newBlock()
		b.edge(cur, target)
		b.labels[s.Label.Name] = target
		b.pendingLabel = s.Label.Name
		next := b.stmt(s.Stmt, target)
		b.pendingLabel = ""
		return next

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if ctx := b.findBreakable(s.Label, false); ctx != nil {
				b.edge(cur, ctx.brk)
			}
		case token.CONTINUE:
			if ctx := b.findBreakable(s.Label, true); ctx != nil {
				b.edge(cur, ctx.cont)
			}
		case token.GOTO:
			if s.Label != nil {
				if target, ok := b.labels[s.Label.Name]; ok {
					b.edge(cur, target)
				} else {
					b.gotos = append(b.gotos, pendingGoto{from: cur, label: s.Label.Name})
				}
			}
		case token.FALLTHROUGH:
			if n := len(b.fallthroughs); n > 0 && b.fallthroughs[n-1] != nil {
				b.edge(cur, b.fallthroughs[n-1])
			}
		}
		return nil

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, s)
		cur.ret = s
		return nil

	case *ast.ExprStmt:
		cur.nodes = append(cur.nodes, s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isBuiltinCall(b.info, call, "panic") {
			cur.panics = true
			return nil
		}
		return cur

	default:
		// Leaf statements: assignments, declarations, sends, inc/dec,
		// defer, go, empty. Executed in place, no control transfer.
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

// switchLike builds switch and type-switch graphs, including fallthrough
// edges into the lexically next clause.
func (b *cfgBuilder) switchLike(cur *cfgBlock, init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) *cfgBlock {
	label := b.takeLabel()
	if init != nil {
		cur.nodes = append(cur.nodes, init)
	}
	if tag != nil {
		cur.nodes = append(cur.nodes, tag)
	}
	if assign != nil {
		cur.nodes = append(cur.nodes, assign)
	}
	join := b.newBlock()
	clauses := make([]*ast.CaseClause, 0, len(body.List))
	for _, c := range body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	blks := make([]*cfgBlock, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blks[i] = b.newBlock()
		b.edge(cur, blks[i])
		for _, e := range c.List {
			// Case guards are evaluated in the dispatching block.
			cur.nodes = append(cur.nodes, e)
		}
		if c.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(cur, join)
	}
	b.breakables = append(b.breakables, breakCtx{label: label, brk: join})
	for i, c := range clauses {
		var next *cfgBlock
		if i+1 < len(blks) {
			next = blks[i+1]
		}
		b.fallthroughs = append(b.fallthroughs, next)
		if end := b.stmtList(c.Body, blks[i]); end != nil {
			b.edge(end, join)
		}
		b.fallthroughs = b.fallthroughs[:len(b.fallthroughs)-1]
	}
	b.breakables = b.breakables[:len(b.breakables)-1]
	if join.preds == 0 {
		return nil
	}
	return join
}

func (b *cfgBuilder) findBreakable(label *ast.Ident, needCont bool) *breakCtx {
	for i := len(b.breakables) - 1; i >= 0; i-- {
		ctx := &b.breakables[i]
		if needCont && ctx.cont == nil {
			continue
		}
		if label == nil || ctx.label == label.Name {
			return ctx
		}
	}
	return nil
}

// reachableFromEntry marks all blocks reachable from the entry.
func (c *funcCFG) reachableFromEntry() map[*cfgBlock]bool {
	seen := map[*cfgBlock]bool{}
	var walk func(*cfgBlock)
	walk = func(blk *cfgBlock) {
		if seen[blk] {
			return
		}
		seen[blk] = true
		for _, s := range blk.succs {
			walk(s)
		}
	}
	walk(c.entry)
	return seen
}

// hotBlocks classifies the graph for noalloc: a block is hot when it is
// reachable from the entry AND some path from it reaches a success exit
// — a return that is not an error return (as judged by isErrorReturn),
// or falling off the end of the function. Blocks whose every outcome is
// a panic or an error return are the cold failure paths; the modelled
// hardware never takes them in steady state, so allocations there are
// exempt.
func (c *funcCFG) hotBlocks(isErrorReturn func(*ast.ReturnStmt) bool) map[*cfgBlock]bool {
	// preds index for the backward walk.
	preds := map[*cfgBlock][]*cfgBlock{}
	for _, blk := range c.blocks {
		for _, s := range blk.succs {
			preds[s] = append(preds[s], blk)
		}
	}
	canReach := map[*cfgBlock]bool{}
	var mark func(*cfgBlock)
	mark = func(blk *cfgBlock) {
		if canReach[blk] {
			return
		}
		canReach[blk] = true
		for _, p := range preds[blk] {
			mark(p)
		}
	}
	for _, blk := range c.blocks {
		if len(blk.succs) > 0 || blk.panics {
			continue
		}
		if blk.ret != nil && isErrorReturn(blk.ret) {
			continue
		}
		mark(blk) // success exit: plain return or implicit fallthrough
	}
	reach := c.reachableFromEntry()
	hot := map[*cfgBlock]bool{}
	for _, blk := range c.blocks {
		if reach[blk] && canReach[blk] {
			hot[blk] = true
		}
	}
	return hot
}
