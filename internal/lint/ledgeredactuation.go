package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/cfg"
	"repro/internal/lint/flow"
)

// LedgeredActuationAnalyzer enforces the write-ahead ledger's upper-bound
// invariant: every restrictive actuation must be recorded before it
// touches a cgroup, so crash recovery can only over-thaw. That holds only
// if actuations flow through resilience.LedgeredActuator (or the
// throttle.Arbiter stack above it) — a single direct call to a raw
// actuator or to the cgroup filesystem reopens the crash-starvation hole.
//
// Flagged outside internal/throttle, internal/resilience, internal/cgroup
// and _test.go files:
//   - calls to Pause/Resume/SetLevel methods declared in internal/throttle
//     or internal/cgroup (the raw actuator surface; the interface method
//     counts, since the static type cannot prove the dynamic value is
//     ledgered);
//   - calls to WriteFile methods declared in internal/cgroup (the
//     freeze/thaw/quota control-file writers behind the actuator).
//
// One shape is exempt without a directive: a forwarding decorator — a
// method that calls the SAME-named method on a field reached through its
// own receiver (`return c.inner.Pause(ids)` inside a Pause method). Such
// wrappers sit inside the actuation stack by construction; the ledger
// invariant is carried by whatever wraps or is wrapped by them.
//
// Inside internal/resilience the raw surface is legal but ordered: the
// analyzer runs a must-analysis over each function's CFG requiring every
// restrictive actuation (Pause, or SetLevel with a constant level below
// full quota) to be preceded by a ledger record call (Record*/Append) on
// ALL paths. Loosening calls (Resume, SetLevel back to 1, variable-level
// SetLevel whose restrictiveness is data-dependent) are not checked —
// under-recording a release only over-thaws, which is the safe direction.
//
// Deliberate bypasses — fail-safe over-thaw paths, fault-injection
// suites — must carry a //lint:stayaway-ignore ledgeredactuation
// directive with a reason.
var LedgeredActuationAnalyzer = &analysis.Analyzer{
	Name: "ledgeredactuation",
	Run:  runLedgeredActuation,
}

// ledgerExemptPkgs are the packages that constitute the actuation layer
// itself: the raw actuators, the ledger wrapper, and the fault-injection
// decorators that sit below the ledger by construction.
var ledgerExemptPkgs = []string{
	"internal/throttle",
	"internal/resilience",
	"internal/cgroup",
}

func runLedgeredActuation(pass *analysis.Pass) (any, error) {
	if pkgMatches(pass.Pkg.Path(), "internal/resilience") {
		checkRecordBeforeRestrict(pass)
		return nil, nil
	}
	if pkgMatches(pass.Pkg.Path(), ledgerExemptPkgs...) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if inTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			enclosing, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn := methodObj(pass, sel)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				declPkg := fn.Pkg().Path()
				switch fn.Name() {
				case "Pause", "Resume", "SetLevel":
					if !pkgMatches(declPkg, "internal/throttle", "internal/cgroup") {
						return true
					}
					if isDecoratorForward(enclosing, fn.Name(), sel) {
						return true
					}
					pass.Reportf(call.Pos(),
						"direct call to (%s).%s bypasses the actuation ledger; actuate through resilience.LedgeredActuator or the throttle.Arbiter",
						declPkg, fn.Name())
				case "WriteFile":
					if !pkgMatches(declPkg, "internal/cgroup") {
						return true
					}
					if isDecoratorForward(enclosing, fn.Name(), sel) {
						return true
					}
					pass.Reportf(call.Pos(),
						"direct cgroup control-file write via (%s).WriteFile bypasses the actuation ledger; use the ledgered actuator",
						declPkg)
				}
				return true
			})
		}
	}
	return nil, nil
}

// isDecoratorForward reports whether a raw-surface call is the sanctioned
// decorator shape: the enclosing declaration is a method with the same
// name as the callee, and the callee's receiver expression is reached
// through the method's own receiver (c.inner.Pause inside (c).Pause).
// Calls through globals or parameters, and same-receiver calls under a
// different method name, are not forwards.
func isDecoratorForward(enclosing *ast.FuncDecl, calleeName string, sel *ast.SelectorExpr) bool {
	if enclosing == nil || enclosing.Recv == nil || enclosing.Name.Name != calleeName {
		return false
	}
	if len(enclosing.Recv.List) != 1 || len(enclosing.Recv.List[0].Names) != 1 {
		return false
	}
	recvName := enclosing.Recv.List[0].Names[0].Name
	// Walk the selector chain of the callee's receiver down to its root
	// identifier; it must be the method receiver, and at least one field
	// hop must separate them (plain c.Pause would be recursion, not a
	// forward).
	expr := sel.X
	hops := 0
	for {
		switch x := expr.(type) {
		case *ast.SelectorExpr:
			expr = x.X
			hops++
		case *ast.Ident:
			return hops > 0 && x.Name == recvName
		default:
			return false
		}
	}
}

// recordFlow is the must-analysis for the record-before-restrict check:
// the state is "a ledger record has happened on EVERY path since entry"
// (join = AND), flipped true by any Record*/Append call.
type recordFlow struct{}

func (recordFlow) Entry() bool { return false }

func (recordFlow) Transfer(n ast.Node, s bool) bool {
	if s {
		return true
	}
	for _, c := range callsIn(n) {
		if isRecordCall(c) {
			return true
		}
	}
	return s
}

func (recordFlow) Join(a, b bool) bool  { return a && b }
func (recordFlow) Equal(a, b bool) bool { return a == b }

func isRecordCall(c *ast.CallExpr) bool {
	name := calleeName(c)
	return strings.HasPrefix(name, "Record") || name == "Append"
}

// isRestrictiveActuation reports whether c tightens the sandbox: a raw
// Pause, or a raw SetLevel whose level is a constant below full quota.
// Variable-level SetLevel is data-dependent and left to the runtime
// ordering in LedgeredActuator.SetLevel itself.
func isRestrictiveActuation(pass *analysis.Pass, c *ast.CallExpr) bool {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn := methodObj(pass, sel)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if !pkgMatches(fn.Pkg().Path(), "internal/throttle", "internal/cgroup") {
		return false
	}
	switch fn.Name() {
	case "Pause":
		return true
	case "SetLevel":
		if len(c.Args) == 0 {
			return false
		}
		tv, ok := pass.TypesInfo.Types[c.Args[len(c.Args)-1]]
		if !ok || tv.Value == nil {
			return false
		}
		if k := tv.Value.Kind(); k != constant.Int && k != constant.Float {
			return false
		}
		return constant.Compare(tv.Value, token.LSS, constant.MakeInt64(1))
	}
	return false
}

// checkRecordBeforeRestrict verifies the write-ahead ordering inside the
// ledger layer: on every path from function entry to a restrictive
// actuation there is a prior record call. Violations report a concrete
// record-free path.
func checkRecordBeforeRestrict(pass *analysis.Pass) {
	for _, file := range pass.Files {
		if inTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := cfg.New(fd.Body)
			fl := recordFlow{}
			r := flow.Run[bool](g, fl)
			recordIn := make(map[*cfg.Block]bool)
			for _, b := range g.Blocks {
				for _, n := range b.Nodes {
					for _, c := range callsIn(n) {
						if isRecordCall(c) {
							recordIn[b] = true
						}
					}
				}
			}
			for _, b := range g.Blocks {
				block := b
				r.NodeStates(fl, b, func(n ast.Node, before bool) {
					s := before
					for _, c := range callsIn(n) {
						if isRecordCall(c) {
							s = true
							continue
						}
						if !s && isRestrictiveActuation(pass, c) {
							msg := "restrictive actuation is not preceded by a ledger record on every path; an unledgered freeze here starves the batch pool across a crash (record first, actuate second)"
							if p := flow.Trace(g.Entry, block, func(x *cfg.Block) bool { return recordIn[x] }); p != nil {
								if trace := traceLines(pass.Fset, p); trace != "" {
									msg += " (record-free path: " + trace + ")"
								}
							}
							pass.Reportf(c.Pos(), "%s", msg)
						}
					}
				})
			}
		}
	}
}

// methodObj resolves the *types.Func a selector call denotes: a method
// (value.Method(...), including interface methods — resolved to where the
// method is declared) or a package-qualified function (pkg.Func(...)).
func methodObj(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Func {
	if s, ok := pass.TypesInfo.Selections[sel]; ok {
		if fn, ok := s.Obj().(*types.Func); ok {
			return fn
		}
		return nil
	}
	if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
		return fn
	}
	return nil
}
