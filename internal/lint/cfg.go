package lint

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow half of dbvet's analysis core: a basic-block
// CFG built over go/ast function bodies, mirroring golang.org/x/tools/go/cfg
// the same way lint.go mirrors go/analysis. The path-sensitive analyzers
// (pinleak, membudget) run as dataflow problems over this graph
// (dataflow.go), which makes branch joins, loops, labeled break/continue,
// and goto accurate by construction instead of by special case.
//
// Shape of the graph:
//
//   - A Block holds leaf nodes in execution order: simple statements
//     (assignments, calls, returns, defers, sends, ...) plus the condition,
//     tag, and range expressions of the control statements that were
//     decomposed into edges. Compound statements (if/for/switch/select)
//     never appear as nodes — their structure IS the graph.
//   - An Edge carries branch context: Cond (with Negate) for the two arms of
//     an if or for condition, and Kind for return/panic terminations.
//     pinleak uses Cond for its err-pairing.
//   - Exit is a synthetic empty block. Explicit returns and panics edge into
//     it with EdgeReturn/EdgePanic; falling off the end of the body edges
//     into it with EdgeImplicitReturn.
//
// Unreachable blocks (statements after a return, empty dead tails) stay in
// Blocks with Live=false so analyses can skip them and the fuzz harness can
// assert the reachable-or-marked-dead invariant.

// EdgeKind classifies a CFG edge.
type EdgeKind uint8

const (
	// EdgeFall is ordinary sequential or branch flow.
	EdgeFall EdgeKind = iota
	// EdgeReturn leads to Exit from an explicit return statement.
	EdgeReturn
	// EdgeImplicitReturn leads to Exit by falling off the end of the body.
	EdgeImplicitReturn
	// EdgePanic leads to Exit from a call to the panic builtin.
	EdgePanic
)

// Edge is one directed control-flow edge.
type Edge struct {
	From, To *Block
	Kind     EdgeKind
	// Cond is the branch condition this edge refines, when the edge is one
	// arm of a two-way conditional; nil otherwise. The edge is taken when
	// Cond evaluates to !Negate.
	Cond   ast.Expr
	Negate bool
}

// Block is one basic block.
type Block struct {
	Index int
	// Nodes are the leaf statements and decomposed control expressions of
	// the block, in execution order.
	Nodes []ast.Node
	Succs []*Edge
	Preds []*Edge
	// Live is true when the block is reachable from Entry.
	Live bool
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	// End is the position of the body's closing brace, used by analyzers to
	// report facts that reach the implicit return.
	End token.Pos
}

// BuildCFG constructs the control-flow graph of one function body. It is
// purely syntactic (no type information) and never fails: unresolvable
// labels degrade to dead edges rather than errors.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{g: &CFG{End: body.End()}}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	b.collectLabels(body)
	b.stmts(body.List)
	// Falling off the end of the body is an implicit return.
	b.edgeTo(b.g.Exit, func(e *Edge) { e.Kind = EdgeImplicitReturn })
	b.resolveGotos()
	b.markLive()
	return b.g
}

// loopFrame tracks one enclosing loop for break/continue resolution.
type loopFrame struct {
	label  string // label naming this loop, "" if none
	head   *Block // continue target
	after  *Block // break target
	isLoop bool   // false for switch/select frames (break only)
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	g      *CFG
	cur    *Block
	frames []loopFrame
	labels map[string]*Block // label -> target block (for goto)
	gotos  []pendingGoto
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// edge adds an edge from->to, applying opts to it.
func (b *cfgBuilder) edge(from, to *Block, opt func(*Edge)) {
	e := &Edge{From: from, To: to}
	if opt != nil {
		opt(e)
	}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
}

// edgeTo adds an edge from the current block.
func (b *cfgBuilder) edgeTo(to *Block, opt func(*Edge)) {
	b.edge(b.cur, to, opt)
}

// startBlock switches statement emission to blk.
func (b *cfgBuilder) startBlock(blk *Block) { b.cur = blk }

// add appends a leaf node to the current block.
func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// collectLabels pre-registers every labeled statement as a goto target so
// forward gotos resolve.
func (b *cfgBuilder) collectLabels(body *ast.BlockStmt) {
	b.labels = make(map[string]*Block)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested functions have their own CFGs
		}
		if ls, ok := n.(*ast.LabeledStmt); ok {
			b.labels[ls.Label.Name] = nil // allocated lazily at emission
		}
		return true
	})
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt emits one statement. label is the pending label when the statement
// was wrapped in a LabeledStmt.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmts(st.List)

	case *ast.LabeledStmt:
		// A label is a goto target: start a fresh block so the jump has a
		// well-defined entry point.
		target := b.newBlock()
		b.edgeTo(target, nil)
		b.startBlock(target)
		if _, ok := b.labels[st.Label.Name]; ok {
			b.labels[st.Label.Name] = target
		}
		b.stmt(st.Stmt, st.Label.Name)

	case *ast.IfStmt:
		if st.Init != nil {
			b.add(st.Init)
		}
		b.add(st.Cond)
		cond := st.Cond
		thenB := b.newBlock()
		after := b.newBlock()
		b.edgeTo(thenB, func(e *Edge) { e.Cond = cond })
		if st.Else != nil {
			elseB := b.newBlock()
			b.edgeTo(elseB, func(e *Edge) { e.Cond = cond; e.Negate = true })
			b.startBlock(elseB)
			b.stmt(st.Else, "")
			b.edgeTo(after, nil)
		} else {
			b.edgeTo(after, func(e *Edge) { e.Cond = cond; e.Negate = true })
		}
		b.startBlock(thenB)
		b.stmt(st.Body, "")
		b.edgeTo(after, nil)
		b.startBlock(after)

	case *ast.ForStmt:
		if st.Init != nil {
			b.add(st.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.edgeTo(head, nil)
		b.startBlock(head)
		if st.Cond != nil {
			b.add(st.Cond)
			cond := st.Cond
			b.edgeTo(body, func(e *Edge) { e.Cond = cond })
			b.edgeTo(after, func(e *Edge) { e.Cond = cond; e.Negate = true })
		} else {
			b.edgeTo(body, nil) // for{}: only break or return exits
		}
		b.pushLoop(label, head, after)
		b.startBlock(body)
		b.stmts(st.Body.List)
		if st.Post != nil {
			b.add(st.Post)
		}
		b.edgeTo(head, nil)
		b.popLoop()
		b.startBlock(after)

	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.add(st.X)
		b.edgeTo(head, nil)
		b.startBlock(head)
		// The range statement itself marks the per-iteration key/value
		// binding for analyzers that care.
		b.add(st)
		b.edgeTo(body, nil)
		b.edgeTo(after, nil)
		b.pushLoop(label, head, after)
		b.startBlock(body)
		b.stmts(st.Body.List)
		b.edgeTo(head, nil)
		b.popLoop()
		b.startBlock(after)

	case *ast.SwitchStmt:
		b.switchLike(st.Init, st.Tag, st.Body, label, false)

	case *ast.TypeSwitchStmt:
		b.switchLike(st.Init, nil, st.Body, label, false)
		// The type-switch assign is evaluated once before dispatch; record
		// it on the block that preceded the dispatch for completeness.
		_ = st.Assign

	case *ast.SelectStmt:
		// A select without default blocks until some case is ready, so
		// there is no fall-past edge; with a default there still is no
		// extra edge because the default clause is one of the case bodies.
		b.switchLike(nil, nil, st.Body, label, true)

	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			fi := b.findFrame(st.Label, false)
			if fi >= 0 {
				b.edgeTo(b.frames[fi].after, nil)
			}
			b.startBlock(b.newBlock()) // dead fall-through
		case token.CONTINUE:
			fi := b.findFrame(st.Label, true)
			if fi >= 0 {
				b.edgeTo(b.frames[fi].head, nil)
			}
			b.startBlock(b.newBlock())
		case token.GOTO:
			if st.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: st.Label.Name})
			}
			b.startBlock(b.newBlock())
		case token.FALLTHROUGH:
			// Handled structurally by switchLike; reaching here means a
			// malformed tree — treat as a no-op.
		}

	case *ast.ReturnStmt:
		b.add(st)
		b.edgeTo(b.g.Exit, func(e *Edge) { e.Kind = EdgeReturn })
		b.startBlock(b.newBlock())

	case *ast.ExprStmt:
		b.add(st)
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				b.edgeTo(b.g.Exit, func(e *Edge) { e.Kind = EdgePanic })
				b.startBlock(b.newBlock())
			}
		}

	case *ast.EmptyStmt:

	default:
		// Assign, Decl, IncDec, Send, Defer, Go: leaf nodes.
		b.add(st)
	}
}

// switchLike emits the shared structure of switch, type switch, and select.
func (b *cfgBuilder) switchLike(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, label string, isSelect bool) {
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	head := b.cur
	after := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, after: after})

	// Pre-create case body entry blocks so fallthrough can target the next.
	var clauses []switchClause
	for _, cl := range body.List {
		c := switchClause{blk: b.newBlock()}
		switch cc := cl.(type) {
		case *ast.CaseClause:
			c.body = cc.Body
			c.exprs = cc.List
			c.isDef = cc.List == nil
		case *ast.CommClause:
			c.body = cc.Body
			c.isDef = cc.Comm == nil
			if cc.Comm != nil {
				c.blk.Nodes = append(c.blk.Nodes, cc.Comm)
			}
		}
		clauses = append(clauses, c)
	}
	hasDefault := false
	for i := range clauses {
		if clauses[i].isDef {
			hasDefault = true
		}
		b.edge(head, clauses[i].blk, nil)
	}
	// A switch with no default (and an empty switch) can fall straight
	// through; a select always takes some case once one is ready, except
	// the degenerate empty select which blocks forever.
	if !hasDefault && !isSelect || len(clauses) == 0 && !isSelect {
		b.edge(head, after, nil)
	}
	for i := range clauses {
		b.startBlock(clauses[i].blk)
		for _, x := range clauses[i].exprs {
			b.add(x)
		}
		b.caseBody(clauses[i].body, i, clauses, after)
		b.edgeTo(after, nil)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.startBlock(after)
}

// switchClause is one case of a switch/type-switch/select during building.
type switchClause struct {
	body  []ast.Stmt
	exprs []ast.Expr // case list / comm statement
	blk   *Block
	isDef bool
}

// caseBody emits one case clause body, routing a trailing fallthrough to the
// next clause's entry block.
func (b *cfgBuilder) caseBody(stmts []ast.Stmt, idx int, clauses []switchClause, after *Block) {
	for i, s := range stmts {
		if bs, ok := s.(*ast.BranchStmt); ok && bs.Tok == token.FALLTHROUGH && i == len(stmts)-1 {
			if idx+1 < len(clauses) {
				b.edgeTo(clauses[idx+1].blk, nil)
				b.startBlock(b.newBlock())
			}
			return
		}
		b.stmt(s, "")
	}
}

func (b *cfgBuilder) pushLoop(label string, head, after *Block) {
	b.frames = append(b.frames, loopFrame{label: label, head: head, after: after, isLoop: true})
}

func (b *cfgBuilder) popLoop() { b.frames = b.frames[:len(b.frames)-1] }

// findFrame locates the break/continue target frame: the innermost loop (or,
// for break, switch/select) frame, or the frame carrying the label.
func (b *cfgBuilder) findFrame(label *ast.Ident, needLoop bool) int {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if needLoop && !f.isLoop {
			continue
		}
		if label == nil || f.label == label.Name {
			return i
		}
	}
	return -1
}

// resolveGotos wires goto edges to their label blocks. A goto to a label the
// builder never emitted (label on a dead path) is dropped.
func (b *cfgBuilder) resolveGotos() {
	for _, g := range b.gotos {
		if target := b.labels[g.label]; target != nil {
			b.edge(g.from, target, nil)
		}
	}
}

// markLive flags blocks reachable from Entry.
func (b *cfgBuilder) markLive() {
	var stack []*Block
	b.g.Entry.Live = true
	stack = append(stack, b.g.Entry)
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range blk.Succs {
			if !e.To.Live {
				e.To.Live = true
				stack = append(stack, e.To)
			}
		}
	}
}

// InspectNode walks one CFG node like ast.Inspect, with one correction: a
// RangeStmt appears in the graph only as a loop-head marker — its body
// statements are their own CFG nodes — so descending into the body here
// would re-process every body statement at the loop head, against the
// loop-head fact. For a RangeStmt node this visits the statement itself and
// its per-iteration Key/Value bindings; the range expression X is skipped
// too, having been emitted as its own node before the head.
func InspectNode(n ast.Node, fn func(ast.Node) bool) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		if !fn(rs) {
			return
		}
		if rs.Key != nil {
			ast.Inspect(rs.Key, fn)
		}
		if rs.Value != nil {
			ast.Inspect(rs.Value, fn)
		}
		return
	}
	ast.Inspect(n, fn)
}
