package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/cfg"
	"repro/internal/lint/flow"
)

// FailsafeAnalyzer enforces the control runtime's release contract: an
// exported entry point in internal/core or internal/throttle that
// acquires a restriction (Pause, or SetLevel below full quota) must
// release it on every path out of the function — early returns and panic
// edges included — either inline or via defer. An exit while the
// restriction is held leaves the batch pool throttled with nobody left
// to thaw it.
//
// The check is flow-sensitive: it runs a forward dataflow over the
// function's CFG tracking the set of possible (held, deferred-release)
// states, with two refinements. First, the error branch of the idiomatic
// acquire guard — `if err := a.Pause(ids); err != nil { return err }` —
// is known to be unheld (the acquire failed), so that return is never
// flagged. Second, same-package helpers are summarized: a helper that
// releases on every exit counts as a release at its call sites, and a
// helper that acquires marks its callers held.
//
// Stateful acquire-only entry points (throttle.Controller.Step holds
// restrictions across calls by design, with release owned by the
// runtime's deferred fail-safe) are out of scope: a function with no
// release anywhere — inline, deferred, or via helper — is a cross-call
// protocol and is not flagged.
var FailsafeAnalyzer = &analysis.Analyzer{
	Name: "failsafe",
	Doc:  "exported core/throttle entry points must release acquired restrictions on every exit path, including panics; release on all paths or via defer",
	Run:  runFailsafe,
}

var failsafePkgs = []string{
	"internal/core",
	"internal/throttle",
}

// failsafeReleaseNames are the calls that lift restrictions. SetLevel is
// handled separately (release only at full quota). RemoveLane and
// DropLane are the lane-removal/shutdown paths: both drain a lane out of
// the merged actuation (the arbiter's DropLane can only loosen), so an
// exit between an acquire and one of them strands the departing lane's
// restrictions just like a skipped Resume would.
var failsafeReleaseNames = map[string]bool{
	"Resume": true, "Release": true, "ReleaseAll": true,
	"Thaw": true, "RemoveLane": true, "DropLane": true,
}

// fsState is a bitset over the possible (held, deferred-release)
// combinations at a program point; the dataflow join is set union, so a
// bit is set when SOME path reaches the point in that combination. The
// unsafe exit condition is exactly the fsHeld bit: held with no deferred
// release pending.
type fsState uint8

const (
	fsFree      fsState = 1 << iota // not held, no deferred release
	fsFreeDefer                     // not held, deferred release pending
	fsHeld                          // held, no deferred release: unsafe at exit
	fsHeldDefer                     // held, deferred release pending
)

// fsAcquireOp marks every combination held, preserving the defer bit.
func fsAcquireOp(s fsState) fsState {
	var out fsState
	if s&(fsFree|fsHeld) != 0 {
		out |= fsHeld
	}
	if s&(fsFreeDefer|fsHeldDefer) != 0 {
		out |= fsHeldDefer
	}
	return out
}

// fsReleaseOp marks every combination unheld, preserving the defer bit.
func fsReleaseOp(s fsState) fsState {
	var out fsState
	if s&(fsFree|fsHeld) != 0 {
		out |= fsFree
	}
	if s&(fsFreeDefer|fsHeldDefer) != 0 {
		out |= fsFreeDefer
	}
	return out
}

// fsDeferOp marks every combination as having a deferred release.
func fsDeferOp(s fsState) fsState {
	var out fsState
	if s&(fsFree|fsFreeDefer) != 0 {
		out |= fsFreeDefer
	}
	if s&(fsHeld|fsHeldDefer) != 0 {
		out |= fsHeldDefer
	}
	return out
}

// fsRunDefers models function exit: pending deferred releases fire, so
// held-with-defer becomes unheld. Used when summarizing helpers — a
// helper's internal defer has completed by the time its caller resumes.
func fsRunDefers(s fsState) fsState {
	out := s &^ fsHeldDefer
	if s&fsHeldDefer != 0 {
		out |= fsFreeDefer
	}
	return out
}

// fsEffect classifies one call's effect on the restriction state.
type fsEffect int

const (
	fsNone fsEffect = iota
	fsAcq
	fsRel
)

// fsSummary is the per-helper effect summary: acquires means the helper
// may leave a restriction held when entered unheld; releasesAlways means
// every normal exit releases a restriction that was held on entry.
type fsSummary struct {
	acquires       bool
	releasesAlways bool
}

// fsScan owns call classification for one package pass, including the
// memoized helper summaries.
type fsScan struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	sums  *flow.Summaries[fsSummary]
}

// classify resolves a call to its restriction effect: the actuation
// protocol names first, then same-package helpers via their flow
// summary.
func (sc *fsScan) classify(c *ast.CallExpr) fsEffect {
	switch name := calleeName(c); {
	case failsafeReleaseNames[name]:
		return fsRel
	case name == "Pause":
		return fsAcq
	case name == "SetLevel":
		if isConstOne(sc.pass, c) {
			return fsRel
		}
		return fsAcq
	}
	fn := calleeFunc(sc.pass, c)
	if fn == nil {
		return fsNone
	}
	decl, ok := sc.decls[fn]
	if !ok {
		return fsNone
	}
	sum := sc.sums.Get(fn, fsSummary{}, func() fsSummary { return sc.summarize(decl) })
	switch {
	case sum.releasesAlways:
		return fsRel
	case sum.acquires:
		return fsAcq
	}
	return fsNone
}

// deferReleases reports whether d defers a release: directly, through a
// closure body, or through a summarized helper.
func (sc *fsScan) deferReleases(d *ast.DeferStmt) bool {
	if sc.classify(d.Call) == fsRel {
		return true
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		for _, c := range callsIn(lit.Body) {
			if sc.classify(c) == fsRel {
				return true
			}
		}
	}
	return false
}

// summarize computes a helper's effect by running the same dataflow over
// its body twice: once entered unheld (does it acquire?) and once held
// (does it release on every exit?). Recursive helpers get the zero
// summary via the Summaries cut-off: neither acquire nor release.
func (sc *fsScan) summarize(decl *ast.FuncDecl) fsSummary {
	g := cfg.New(decl.Body)
	guards := sc.guardEdges(g)

	exitState := func(entry fsState) (fsState, bool) {
		fl := &fsFlow{sc: sc, entry: entry, edgeClear: guards}
		r := flow.Run[fsState](g, fl)
		s, ok := r.In[g.Exit]
		return s, ok
	}

	var sum fsSummary
	if s, ok := exitState(fsFree); ok {
		sum.acquires = fsRunDefers(s)&fsHeld != 0
	}
	if s, ok := exitState(fsHeld); ok {
		resolved := fsRunDefers(s)
		sum.releasesAlways = resolved&fsHeld == 0
	}
	return sum
}

// fsEdge keys the guard-edge refinement map.
type fsEdge struct{ from, to *cfg.Block }

// guardEdges finds the acquire-guard idiom — a block whose condition
// compares against nil an error assigned from an acquiring call in the
// same block — and returns the failure edges, along which the acquire is
// known NOT to have happened.
func (sc *fsScan) guardEdges(g *cfg.CFG) map[fsEdge]bool {
	edges := make(map[fsEdge]bool)
	for _, b := range g.Blocks {
		if len(b.Nodes) == 0 || len(b.Succs) != 2 {
			continue
		}
		cond, ok := b.Nodes[len(b.Nodes)-1].(*ast.BinaryExpr)
		if !ok || (cond.Op != token.NEQ && cond.Op != token.EQL) {
			continue
		}
		errIdent := nilComparedIdent(cond)
		if errIdent == nil {
			continue
		}
		// The LAST assignment to the guarded ident before the condition
		// must be from an acquiring expression.
		acquired := false
		for _, n := range b.Nodes[:len(b.Nodes)-1] {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				continue
			}
			assigns := false
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == errIdent.Name {
					assigns = true
				}
			}
			if !assigns {
				continue
			}
			acquired = false
			for _, c := range callsIn(as) {
				if sc.classify(c) == fsAcq {
					acquired = true
				}
			}
		}
		if !acquired {
			continue
		}
		// Succs[0] is the then-branch: for `err != nil` that is the
		// failure path; for `err == nil` the failure path is Succs[1].
		fail := b.Succs[0]
		if cond.Op == token.EQL {
			fail = b.Succs[1]
		}
		edges[fsEdge{b, fail}] = true
	}
	return edges
}

// nilComparedIdent returns the identifier compared against nil in cond,
// or nil if the comparison has another shape.
func nilComparedIdent(cond *ast.BinaryExpr) *ast.Ident {
	if isNilIdent(cond.Y) {
		if id, ok := cond.X.(*ast.Ident); ok {
			return id
		}
	}
	if isNilIdent(cond.X) {
		if id, ok := cond.Y.(*ast.Ident); ok {
			return id
		}
	}
	return nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// fsFlow is the dataflow problem: bitset lattice joined by union, with
// guard edges clearing the held bits on acquire-failure branches.
type fsFlow struct {
	sc        *fsScan
	entry     fsState
	edgeClear map[fsEdge]bool
}

func (a *fsFlow) Entry() fsState            { return a.entry }
func (a *fsFlow) Join(x, y fsState) fsState { return x | y }
func (a *fsFlow) Equal(x, y fsState) bool   { return x == y }

func (a *fsFlow) Transfer(n ast.Node, s fsState) fsState {
	if d, ok := n.(*ast.DeferStmt); ok {
		if a.sc.deferReleases(d) {
			return fsDeferOp(s)
		}
		return s
	}
	for _, c := range callsIn(n) {
		switch a.sc.classify(c) {
		case fsRel:
			s = fsReleaseOp(s)
		case fsAcq:
			s = fsAcquireOp(s)
		}
	}
	return s
}

func (a *fsFlow) EdgeTransfer(from, to *cfg.Block, s fsState) fsState {
	if a.edgeClear[fsEdge{from, to}] {
		return fsReleaseOp(s)
	}
	return s
}

func runFailsafe(pass *analysis.Pass) (any, error) {
	if !pkgMatches(pass.Pkg.Path(), failsafePkgs...) {
		return nil, nil
	}
	sc := &fsScan{
		pass:  pass,
		decls: flow.DeclIndex(pass.Files, pass.TypesInfo),
		sums:  flow.NewSummaries[fsSummary](),
	}
	for _, file := range pass.Files {
		if inTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			checkFailsafeFn(pass, sc, fn)
		}
	}
	return nil, nil
}

func checkFailsafeFn(pass *analysis.Pass, sc *fsScan, fn *ast.FuncDecl) {
	g := cfg.New(fn.Body)
	reach := g.Reachable()

	// Presence scan: which reachable blocks acquire, which release. A
	// function with no acquire has nothing to check; one that acquires
	// but never releases anywhere is a stateful cross-call protocol and
	// is out of scope.
	anyAcq, anyRel := false, false
	acqPos := make(map[*cfg.Block]token.Pos)
	var acqBlocks []*cfg.Block
	releaseIn := make(map[*cfg.Block]bool)
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		for _, n := range b.Nodes {
			if d, ok := n.(*ast.DeferStmt); ok {
				if sc.deferReleases(d) {
					anyRel = true
					releaseIn[b] = true
				}
				continue
			}
			for _, c := range callsIn(n) {
				switch sc.classify(c) {
				case fsAcq:
					anyAcq = true
					if _, seen := acqPos[b]; !seen {
						acqPos[b] = c.Pos()
						acqBlocks = append(acqBlocks, b)
					}
				case fsRel:
					anyRel = true
					releaseIn[b] = true
				}
			}
		}
	}
	if !anyAcq || !anyRel {
		return
	}

	fl := &fsFlow{sc: sc, entry: fsFree, edgeClear: sc.guardEdges(g)}
	r := flow.Run[fsState](g, fl)
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		out, ok := r.Out[b]
		if !ok {
			continue
		}
		for _, succ := range b.Succs {
			if succ != g.Exit && succ != g.Panic {
				continue
			}
			if fl.EdgeTransfer(b, succ, out)&fsHeld == 0 {
				continue
			}
			reportFailsafe(pass, fn, g, b, succ, acqBlocks, acqPos, releaseIn)
			break
		}
	}
}

// reportFailsafe emits one diagnostic at the violating exit, with the
// acquire line and a concrete release-free witness path when one is
// found.
func reportFailsafe(pass *analysis.Pass, fn *ast.FuncDecl, g *cfg.CFG, b, succ *cfg.Block, acqBlocks []*cfg.Block, acqPos map[*cfg.Block]token.Pos, releaseIn map[*cfg.Block]bool) {
	pos := fn.Body.Rbrace
	if len(b.Nodes) > 0 {
		pos = b.Nodes[len(b.Nodes)-1].Pos()
	}
	exitWord := "return"
	if succ == g.Panic {
		exitWord = "panic"
	}

	var path []*cfg.Block
	var acq *cfg.Block
	for _, ab := range acqBlocks {
		if p := flow.Trace(ab, b, func(x *cfg.Block) bool { return releaseIn[x] }); p != nil {
			path, acq = p, ab
			break
		}
	}
	if acq == nil {
		// No release-free trace (held state reached b another way): still
		// report, anchored at the first acquire.
		acq = acqBlocks[0]
	}
	acqLine := pass.Fset.Position(acqPos[acq]).Line

	msg := fmt.Sprintf("restriction acquired at line %d is not released before this %s", acqLine, exitWord)
	if trace := traceLines(pass.Fset, path); trace != "" {
		msg += " (path: " + trace + ")"
	}
	msg += " and leaves the batch pool throttled on this path; release on every path or via defer"
	pass.Reportf(pos, "%s", msg)
}

// traceLines renders a block path as a deduplicated line-number chain,
// eliding the middle of long paths.
func traceLines(fset *token.FileSet, path []*cfg.Block) string {
	var lines []int
	for _, b := range path {
		p := b.Pos()
		if !p.IsValid() {
			continue
		}
		ln := fset.Position(p).Line
		if len(lines) == 0 || lines[len(lines)-1] != ln {
			lines = append(lines, ln)
		}
	}
	if len(lines) < 2 {
		return ""
	}
	var parts []string
	if len(lines) > 6 {
		for _, ln := range lines[:4] {
			parts = append(parts, "line "+strconv.Itoa(ln))
		}
		parts = append(parts, "...", "line "+strconv.Itoa(lines[len(lines)-1]))
	} else {
		for _, ln := range lines {
			parts = append(parts, "line "+strconv.Itoa(ln))
		}
	}
	return strings.Join(parts, " -> ")
}

// callsIn collects the calls inside n in source order, not descending
// into function literals: their bodies execute on their own schedule,
// not on this path.
func callsIn(n ast.Node) []*ast.CallExpr {
	var calls []*ast.CallExpr
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			calls = append(calls, n)
		}
		return true
	})
	return calls
}

// calleeFunc resolves the called function object, for helper-summary
// lookup. Returns nil for builtins, conversions, and function values.
func calleeFunc(pass *analysis.Pass, c *ast.CallExpr) *types.Func {
	switch fun := c.Fun.(type) {
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		return methodObj(pass, fun)
	}
	return nil
}

// isConstOne reports whether the last argument of c is the constant 1.
func isConstOne(pass *analysis.Pass, c *ast.CallExpr) bool {
	if len(c.Args) == 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[c.Args[len(c.Args)-1]]
	if !ok || tv.Value == nil {
		return false
	}
	one := constant.MakeInt64(1)
	return constant.Compare(tv.Value, token.EQL, one)
}

// calleeName extracts the called function or method name.
func calleeName(c *ast.CallExpr) string {
	switch fun := c.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
