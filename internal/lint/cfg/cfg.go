// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies for the stayawaylint flow-sensitive analyzers. It is a
// deliberately small, stdlib-only sibling of golang.org/x/tools/go/cfg,
// with two extensions that package omits because the repository's
// invariants need them:
//
//   - an explicit Panic exit block: `panic(x)` statements edge there
//     instead of falling through, so "released on every exit path"
//     checks can distinguish the unwinding path (where only deferred
//     calls run) from normal returns;
//   - defer statements kept as ordinary block nodes, so a dataflow
//     transfer function can record "a release is now registered" at the
//     point the defer executes, not where its call eventually runs.
//
// The graph is syntactic: one node per statement (or per evaluated
// sub-statement such as an if condition), successor edges for every
// branch, loop, switch, select, goto and labeled break/continue.
// Unreachable statements produce blocks with no predecessors; analyzers
// iterate only what Entry reaches.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks holds every block, Entry first. Order is deterministic
	// (construction order) but only Entry's position is meaningful.
	Blocks []*Block
	// Entry is where execution starts.
	Entry *Block
	// Exit is the single normal-return block: every return statement and
	// the fall-off-the-end path edge here. It carries no nodes.
	Exit *Block
	// Panic is the unwinding exit: explicit panic(...) statements edge
	// here. Deferred calls still run on this path; nothing else does.
	Panic *Block
}

// Block is one basic block: nodes that execute consecutively, then a
// branch to one of Succs.
type Block struct {
	// Index is the block's position in CFG.Blocks.
	Index int
	// Kind labels the construct that created the block ("entry", "exit",
	// "panic", "if.then", "for.head", ...) for debugging and traces.
	Kind string
	// Nodes are the statements and evaluated expressions, in execution
	// order. An if/for condition appears as its ast.Expr; everything else
	// as the ast.Stmt.
	Nodes []ast.Node
	// Succs and Preds are the flow edges.
	Succs []*Block
	Preds []*Block
}

// Pos returns the position of the block's first node, or token.NoPos for
// synthetic blocks (entry/exit/join).
func (b *Block) Pos() token.Pos {
	for _, n := range b.Nodes {
		if p := n.Pos(); p.IsValid() {
			return p
		}
	}
	return token.NoPos
}

func (b *Block) String() string { return fmt.Sprintf("b%d(%s)", b.Index, b.Kind) }

// New builds the CFG of one function body. body must be non-nil.
func New(body *ast.BlockStmt) *CFG {
	g := &CFG{}
	b := &builder{g: g, labels: make(map[string]*Block)}
	g.Entry = b.newBlock("entry")
	g.Exit = b.newBlock("exit")
	g.Panic = b.newBlock("panic")
	b.cur = g.Entry
	b.stmtList(body.List)
	// Falling off the end of the body is a normal return.
	b.jump(g.Exit)
	return g
}

// Reachable returns the set of blocks reachable from Entry.
func (g *CFG) Reachable() map[*Block]bool {
	seen := make(map[*Block]bool)
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	return seen
}

// String renders the graph for debugging and tests.
func (g *CFG) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "%s ->", b)
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " %s", s)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// frame is one enclosing breakable/continuable construct.
type frame struct {
	label string
	brk   *Block   // break target; nil when the frame is label-only
	cont  *Block   // continue target; nil for switch/select
	next  []*Block // clause chain for fallthrough, aligned with idx
	idx   int
}

type builder struct {
	g      *CFG
	cur    *Block // nil after a terminator until the next block starts
	frames []*frame
	labels map[string]*Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump ends the current block with an edge to target; the builder is left
// without a current block.
func (b *builder) jump(target *Block) {
	if b.cur != nil {
		edge(b.cur, target)
	}
	b.cur = nil
}

// startBlock begins kind as the new current block, linking from the old
// one when it is still open.
func (b *builder) startBlock(kind string) *Block {
	blk := b.newBlock(kind)
	if b.cur != nil {
		edge(b.cur, blk)
	}
	b.cur = blk
	return blk
}

// add appends a node to the current block, opening a fresh (unreachable)
// one if a terminator just closed it — that is exactly dead code.
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("dead")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.jump(lb)
		b.cur = lb
		b.labeledStmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		b.cur = nil
		then := b.newBlock("if.then")
		edge(cond, then)
		b.cur = then
		b.stmtList(s.Body.List)
		thenEnd := b.cur
		b.cur = nil
		var elseEnd *Block
		if s.Else != nil {
			els := b.newBlock("if.else")
			edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			elseEnd = b.cur
			b.cur = nil
		}
		join := b.newBlock("if.join")
		if s.Else == nil {
			edge(cond, join)
		}
		if thenEnd != nil {
			edge(thenEnd, join)
		}
		if elseEnd != nil {
			edge(elseEnd, join)
		}
		b.cur = join

	case *ast.ForStmt:
		b.forStmt(s, "")

	case *ast.RangeStmt:
		b.rangeStmt(s, "")

	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, s.Body, "switch", "")

	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, s.Assign, s.Body, "typeswitch", "")

	case *ast.SelectStmt:
		b.selectStmt(s, "")

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.jump(b.g.Panic)
		}

	default:
		// Defer, go, assignments, declarations, sends, inc/dec, empty:
		// straight-line nodes.
		b.add(s)
	}
}

// labeledStmt builds the statement a label is attached to, making the
// label available to break/continue inside it.
func (b *builder) labeledStmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, s.Body, "switch", label)
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, s.Assign, s.Body, "typeswitch", label)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	default:
		// Label on a plain statement: only a goto target.
		b.stmt(s)
	}
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.startBlock("for.head")
	if s.Cond != nil {
		b.add(s.Cond)
	}
	after := b.newBlock("for.after")
	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
		post.Nodes = append(post.Nodes, s.Post)
		edge(post, head)
		cont = post
	}
	body := b.newBlock("for.body")
	edge(head, body)
	if s.Cond != nil {
		edge(head, after)
	}
	b.frames = append(b.frames, &frame{label: label, brk: after, cont: cont})
	b.cur = body
	b.stmtList(s.Body.List)
	b.jump(cont)
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.startBlock("range.head")
	head.Nodes = append(head.Nodes, s)
	after := b.newBlock("range.after")
	body := b.newBlock("range.body")
	edge(head, body)
	// A range loop always has a normal exit: the iterated value runs dry
	// (or, for channels, is closed).
	edge(head, after)
	b.frames = append(b.frames, &frame{label: label, brk: after, cont: head})
	b.cur = body
	b.stmtList(s.Body.List)
	b.jump(head)
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *builder) switchStmt(init ast.Stmt, tag ast.Node, body *ast.BlockStmt, kind, label string) {
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	head := b.cur
	if head == nil {
		head = b.newBlock("dead")
		b.cur = head
	}
	b.cur = nil
	after := b.newBlock(kind + ".after")

	var clauses []*ast.CaseClause
	for _, cs := range body.List {
		if cc, ok := cs.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock(kind + ".case")
		edge(head, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		edge(head, after)
	}
	fr := &frame{label: label, brk: after, next: blocks}
	b.frames = append(b.frames, fr)
	for i, cc := range clauses {
		fr.idx = i
		b.cur = blocks[i]
		b.stmtList(cc.Body)
		b.jump(after)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	if head == nil {
		head = b.newBlock("dead")
	}
	b.cur = nil
	after := b.newBlock("select.after")
	var comms []*ast.CommClause
	for _, cs := range s.Body.List {
		if cc, ok := cs.(*ast.CommClause); ok {
			comms = append(comms, cc)
		}
	}
	// select{} blocks forever: head keeps no successors and everything
	// after it is unreachable.
	fr := &frame{label: label, brk: after}
	b.frames = append(b.frames, fr)
	for _, cc := range comms {
		blk := b.newBlock("select.case")
		edge(head, blk)
		if cc.Comm != nil {
			blk.Nodes = append(blk.Nodes, cc.Comm)
		}
		b.cur = blk
		b.stmtList(cc.Body)
		b.jump(after)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	switch s.Tok {
	case token.BREAK:
		for i := len(b.frames) - 1; i >= 0; i-- {
			fr := b.frames[i]
			if fr.brk == nil {
				continue
			}
			if s.Label == nil || fr.label == s.Label.Name {
				b.jump(fr.brk)
				return
			}
		}
		b.cur = nil // malformed program; sever the edge
	case token.CONTINUE:
		for i := len(b.frames) - 1; i >= 0; i-- {
			fr := b.frames[i]
			if fr.cont == nil {
				continue
			}
			if s.Label == nil || fr.label == s.Label.Name {
				b.jump(fr.cont)
				return
			}
		}
		b.cur = nil
	case token.GOTO:
		if s.Label != nil {
			b.jump(b.labelBlock(s.Label.Name))
			return
		}
		b.cur = nil
	case token.FALLTHROUGH:
		for i := len(b.frames) - 1; i >= 0; i-- {
			fr := b.frames[i]
			if fr.next == nil {
				continue
			}
			if fr.idx+1 < len(fr.next) {
				b.jump(fr.next[fr.idx+1])
			} else {
				b.cur = nil
			}
			return
		}
		b.cur = nil
	}
}

// labelBlock returns (creating on first use, so forward gotos resolve)
// the block a label names.
func (b *builder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labels[name] = blk
	return blk
}

// isPanicCall reports whether e is a call to the panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
