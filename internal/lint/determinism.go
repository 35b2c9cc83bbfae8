package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// DeterminismAnalyzer enforces reproducibility of the mapping/prediction
// pipeline: checkpoints, templates and experiment figures must be
// byte-identical under a fixed seed, which is what makes crash recovery
// and cross-host template exchange testable. In internal/mds,
// internal/statespace, internal/predictor, internal/trajectory,
// internal/sim, internal/sched and internal/workload (non-test files) it
// flags:
//
//   - time.Now — wall-clock reads; time must flow in from the caller;
//   - the global math/rand (and math/rand/v2) top-level functions, whose
//     shared source is seeded per-process — randomness must come from an
//     explicitly seeded *rand.Rand;
//   - map iteration feeding order-dependent output: appending to a slice
//     declared outside the loop without a subsequent sort of that slice in
//     the same block, accumulating floating-point values (addition is not
//     associative, so iteration order changes low bits), or printing.
//
// Map iteration that fills another map, counts integers, or appends and
// then sorts is fine and not flagged.
var DeterminismAnalyzer = &analysis.Analyzer{
	Name: "determinism",
	Run:  runDeterminism,
}

var determinismPkgs = []string{
	"internal/mds",
	"internal/statespace",
	"internal/predictor",
	"internal/trajectory",
	"internal/sim",
	// Placement plans are reproducible artifacts: the same inventory, jobs
	// and seed must yield the same decisions.
	"internal/sched",
	// Open-loop arrival processes and queues drive every scenario-zoo
	// figure and the CI -scenarios determinism gate: a same-seed replay
	// must reproduce each summary value bit-for-bit.
	"internal/workload",
}

// globalRandFuncs are the math/rand top-level functions backed by the
// process-global source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 additions.
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

func runDeterminism(pass *analysis.Pass) (any, error) {
	if !pkgMatches(pass.Pkg.Path(), determinismPkgs...) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if inTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondeterministicCall(pass, n)
			case *ast.BlockStmt:
				checkMapRanges(pass, n.List)
			case *ast.CaseClause:
				checkMapRanges(pass, n.Body)
			case *ast.CommClause:
				checkMapRanges(pass, n.Body)
			}
			return true
		})
	}
	return nil, nil
}

func checkNondeterministicCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn := methodObj(pass, sel)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// Only package-level functions: methods on an explicitly seeded
	// *rand.Rand are the sanctioned randomness source.
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(call.Pos(), "time.Now in a deterministic package; take the timestamp as a parameter")
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "global %s.%s uses the process-wide source; draw from an explicitly seeded *rand.Rand", fn.Pkg().Path(), fn.Name())
		}
	}
}

// checkMapRanges scans one statement list so that a range-over-map can be
// absolved by a later sort of the slice it built, in the same list.
func checkMapRanges(pass *analysis.Pass, stmts []ast.Stmt) {
	for i, stmt := range stmts {
		rng, ok := stmt.(*ast.RangeStmt)
		if !ok {
			continue
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			continue
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			continue
		}
		checkMapRangeBody(pass, rng, stmts[i+1:])
	}
}

func checkMapRangeBody(pass *analysis.Pass, rng *ast.RangeStmt, after []ast.Stmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			lhs, ok := n.Lhs[0].(*ast.Ident)
			if !ok || !declaredOutside(pass, lhs, rng) {
				return true
			}
			switch n.Tok {
			case token.ASSIGN, token.DEFINE:
				if isAppendTo(pass, n.Rhs[0], lhs) && !sortedAfter(pass, lhs, after) {
					pass.Reportf(n.Pos(),
						"append to %s under map iteration without a subsequent sort; the result order follows the map's randomized order",
						lhs.Name)
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if isFloat(pass.TypesInfo.TypeOf(lhs)) {
					pass.Reportf(n.Pos(),
						"floating-point accumulation into %s under map iteration; float arithmetic is not associative, so the low bits follow the map's randomized order — iterate sorted keys",
						lhs.Name)
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if fn := methodObj(pass, sel); fn != nil && fn.Pkg() != nil &&
					fn.Pkg().Path() == "fmt" && hasPrefixAny(fn.Name(), "Print", "Fprint", "Sprint") {
					pass.Reportf(n.Pos(), "fmt.%s under map iteration emits map-ordered output; iterate sorted keys", fn.Name())
				}
			}
		}
		return true
	})
}

// declaredOutside reports whether id's object is declared outside the
// range statement (so writes to it under iteration escape the loop).
func declaredOutside(pass *analysis.Pass, id *ast.Ident, rng *ast.RangeStmt) bool {
	obj := pass.TypesInfo.ObjectOf(id)
	return obj != nil && (obj.Pos() < rng.Pos() || obj.Pos() >= rng.End())
}

// isAppendTo reports whether e is append(target, ...).
func isAppendTo(pass *analysis.Pass, e ast.Expr, target *ast.Ident) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if b, ok := pass.TypesInfo.ObjectOf(fn).(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	return ok && pass.TypesInfo.ObjectOf(arg) == pass.TypesInfo.ObjectOf(target)
}

// sortedAfter reports whether one of the statements contains a sort of
// the slice (sort.Strings/Ints/Float64s/Slice/SliceStable/Sort or the
// slices package equivalents) with the same object as first argument.
func sortedAfter(pass *analysis.Pass, target *ast.Ident, stmts []ast.Stmt) bool {
	obj := pass.TypesInfo.ObjectOf(target)
	for _, stmt := range stmts {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
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
			switch fn.Pkg().Path() {
			case "sort", "slices":
			default:
				return true
			}
			if !hasPrefixAny(fn.Name(), "Sort", "Strings", "Ints", "Float64s", "Slice", "Stable") {
				return true
			}
			if arg, ok := call.Args[0].(*ast.Ident); ok && pass.TypesInfo.ObjectOf(arg) == obj {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func hasPrefixAny(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if len(s) >= len(p) && s[:len(p)] == p {
			return true
		}
	}
	return false
}
