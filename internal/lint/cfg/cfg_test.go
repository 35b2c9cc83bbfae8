package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// build parses src as the body of a function and returns its CFG. src is
// the function body without braces.
func build(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := file.Decls[0].(*ast.FuncDecl)
	return New(fn.Body)
}

// blocksWith returns the reachable blocks whose Kind matches.
func blocksWith(g *CFG, kind string) []*Block {
	var out []*Block
	for b := range g.Reachable() {
		if b.Kind == kind {
			out = append(out, b)
		}
	}
	return out
}

// canReach reports whether to is reachable from from (inclusive).
func canReach(from, to *Block) bool {
	seen := map[*Block]bool{from: true}
	work := []*Block{from}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		if b == to {
			return true
		}
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return false
}

func TestStraightLineReachesExit(t *testing.T) {
	g := build(t, "x := 1\n_ = x")
	if !canReach(g.Entry, g.Exit) {
		t.Fatalf("entry cannot reach exit:\n%s", g)
	}
	if g.Reachable()[g.Panic] {
		t.Errorf("panic block reachable without a panic statement:\n%s", g)
	}
	if len(g.Entry.Nodes) != 2 {
		t.Errorf("entry holds %d nodes, want 2", len(g.Entry.Nodes))
	}
}

func TestEarlyReturnBranches(t *testing.T) {
	g := build(t, `
if cond() {
	return
}
work()`)
	// Both the then-branch (via return) and the fall-through path must
	// reach exit; the then block must NOT reach the join.
	thens := blocksWith(g, "if.then")
	if len(thens) != 1 {
		t.Fatalf("want 1 reachable if.then, got %d:\n%s", len(thens), g)
	}
	joins := blocksWith(g, "if.join")
	if len(joins) != 1 {
		t.Fatalf("want 1 reachable if.join, got %d:\n%s", len(joins), g)
	}
	if canReach(thens[0], joins[0]) {
		t.Errorf("then-branch with return still reaches join:\n%s", g)
	}
	if !canReach(thens[0], g.Exit) {
		t.Errorf("then-branch return does not reach exit:\n%s", g)
	}
	if !canReach(joins[0], g.Exit) {
		t.Errorf("fall-through does not reach exit:\n%s", g)
	}
}

func TestPanicEdge(t *testing.T) {
	g := build(t, `
if bad() {
	panic("corrupt")
}
work()`)
	if !g.Reachable()[g.Panic] {
		t.Fatalf("panic statement did not reach the panic block:\n%s", g)
	}
	// The panic path must not fall through to the join.
	thens := blocksWith(g, "if.then")
	if len(thens) != 1 {
		t.Fatalf("want 1 if.then, got %d", len(thens))
	}
	if canReach(thens[0], g.Exit) {
		t.Errorf("panic path reaches the normal exit:\n%s", g)
	}
}

func TestForLoopEdges(t *testing.T) {
	g := build(t, `
for i := 0; i < 3; i++ {
	work()
}
done()`)
	heads := blocksWith(g, "for.head")
	if len(heads) != 1 {
		t.Fatalf("want 1 for.head, got %d:\n%s", len(heads), g)
	}
	head := heads[0]
	// Conditional loop: head branches to both body and after.
	if len(head.Succs) != 2 {
		t.Fatalf("for.head has %d successors, want 2:\n%s", len(head.Succs), g)
	}
	// Back edge: body reaches head again (through for.post).
	bodies := blocksWith(g, "for.body")
	if len(bodies) != 1 || !canReach(bodies[0], head) {
		t.Errorf("loop body has no back edge to head:\n%s", g)
	}
	if !canReach(g.Entry, g.Exit) {
		t.Errorf("bounded loop cannot reach exit:\n%s", g)
	}
}

func TestUnconditionalLoopHasNoExit(t *testing.T) {
	g := build(t, `
for {
	work()
}`)
	if canReach(g.Entry, g.Exit) {
		t.Errorf("for{} without break reaches exit:\n%s", g)
	}
}

func TestUnconditionalLoopWithBreak(t *testing.T) {
	g := build(t, `
for {
	if done() {
		break
	}
	work()
}`)
	if !canReach(g.Entry, g.Exit) {
		t.Errorf("break does not restore the exit path:\n%s", g)
	}
}

func TestRangeLoopAlwaysHasExit(t *testing.T) {
	// A range over a channel exits when the channel closes: the head must
	// have the after-edge even with no break.
	g := build(t, `
for v := range ch {
	use(v)
}`)
	if !canReach(g.Entry, g.Exit) {
		t.Errorf("range loop cannot reach exit:\n%s", g)
	}
	heads := blocksWith(g, "range.head")
	if len(heads) != 1 || len(heads[0].Succs) != 2 {
		t.Errorf("range.head missing body/after successor pair:\n%s", g)
	}
}

func TestSelectWithoutExitCaseLoopsForever(t *testing.T) {
	g := build(t, `
for {
	select {
	case <-tick:
		work()
	}
}`)
	if canReach(g.Entry, g.Exit) {
		t.Errorf("loop around exit-less select reaches exit:\n%s", g)
	}
}

func TestSelectWithReturnCase(t *testing.T) {
	g := build(t, `
for {
	select {
	case <-done:
		return
	case <-tick:
		work()
	}
}`)
	if !canReach(g.Entry, g.Exit) {
		t.Errorf("select return case does not reach exit:\n%s", g)
	}
}

func TestEmptySelectBlocksForever(t *testing.T) {
	g := build(t, "select {}\nwork()")
	if canReach(g.Entry, g.Exit) {
		t.Errorf("select{} falls through:\n%s", g)
	}
}

func TestSwitchDefaultAndFallthrough(t *testing.T) {
	g := build(t, `
switch mode {
case 0:
	a()
	fallthrough
case 1:
	b()
default:
	c()
}
done()`)
	if !canReach(g.Entry, g.Exit) {
		t.Fatalf("switch cannot reach exit:\n%s", g)
	}
	// Fallthrough: the case-0 block's successor set includes the case-1
	// block directly.
	cases := blocksWith(g, "switch.case")
	if len(cases) != 3 {
		t.Fatalf("want 3 reachable cases, got %d:\n%s", len(cases), g)
	}
	caseToCase := 0
	for _, c := range cases {
		for _, s := range c.Succs {
			if s.Kind == "switch.case" {
				caseToCase++
			}
		}
	}
	if caseToCase != 1 {
		t.Errorf("want exactly 1 fallthrough edge between cases, got %d:\n%s", caseToCase, g)
	}
}

func TestSwitchWithoutDefaultFallsThrough(t *testing.T) {
	g := build(t, `
switch mode {
case 0:
	return
}
after()`)
	afters := blocksWith(g, "switch.after")
	if len(afters) != 1 {
		t.Fatalf("want reachable switch.after, got %d:\n%s", len(afters), g)
	}
}

func TestLabeledBreak(t *testing.T) {
	g := build(t, `
outer:
for {
	for {
		break outer
	}
}
done()`)
	if !canReach(g.Entry, g.Exit) {
		t.Errorf("labeled break does not escape both loops:\n%s", g)
	}
}

func TestLabeledContinueStaysInLoop(t *testing.T) {
	g := build(t, `
outer:
for {
	for {
		continue outer
	}
}
done()`)
	if canReach(g.Entry, g.Exit) {
		t.Errorf("continue outer must not create an exit path:\n%s", g)
	}
}

func TestGotoForwardAndBackward(t *testing.T) {
	g := build(t, `
	i := 0
loop:
	i++
	if i < 3 {
		goto loop
	}
	goto end
	unreachable()
end:
	done()`)
	if !canReach(g.Entry, g.Exit) {
		t.Fatalf("goto end does not reach exit:\n%s", g)
	}
	// The statement after `goto end` is dead: its block has no preds.
	reach := g.Reachable()
	dead := 0
	for _, b := range g.Blocks {
		if !reach[b] && len(b.Nodes) > 0 {
			dead++
		}
	}
	if dead == 0 {
		t.Errorf("unreachable statement not isolated:\n%s", g)
	}
}

func TestDeferIsAnOrdinaryNode(t *testing.T) {
	g := build(t, "defer release()\nwork()")
	found := false
	for _, n := range g.Entry.Nodes {
		if _, ok := n.(*ast.DeferStmt); ok {
			found = true
		}
	}
	if !found {
		t.Errorf("defer statement missing from entry block nodes:\n%s", g)
	}
}

func TestReturnInsideLoopBody(t *testing.T) {
	g := build(t, `
for i := 0; i < 10; i++ {
	if err := work(); err != nil {
		return
	}
}`)
	// Two distinct paths to exit: the early return and loop completion.
	if !canReach(g.Entry, g.Exit) {
		t.Fatalf("no exit path:\n%s", g)
	}
	exitPreds := len(g.Exit.Preds)
	if exitPreds < 2 {
		t.Errorf("exit has %d predecessors, want >= 2 (early return + loop end):\n%s", exitPreds, g)
	}
}
