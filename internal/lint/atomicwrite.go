package lint

import (
	"go/ast"

	"repro/internal/lint/analysis"
)

// AtomicWriteAnalyzer enforces crash-safe persistence: every state or
// output file in this repository is replaced atomically (temp file +
// rename in the destination directory) via internal/fsatomic, so a crash
// mid-write — or a concurrent reader — never observes a torn file. Raw
// os.WriteFile/os.Create/os.Rename outside internal/fsatomic and _test.go
// files are flagged; fsatomic itself is the one place allowed to own the
// rename dance.
//
// os.OpenFile is deliberately not flagged: append-mode writers (the
// actuation ledger) and non-creating control-file writers (cgroupfs) have
// different, individually-audited crash contracts.
var AtomicWriteAnalyzer = &analysis.Analyzer{
	Name: "atomicwrite",
	Run:  runAtomicWrite,
}

func runAtomicWrite(pass *analysis.Pass) (any, error) {
	if pkgMatches(pass.Pkg.Path(), "internal/fsatomic") {
		return nil, nil
	}
	flagged := map[string]bool{"WriteFile": true, "Create": true, "Rename": true}
	for _, file := range pass.Files {
		if inTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := methodObj(pass, sel)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
				return true
			}
			if flagged[fn.Name()] {
				pass.Reportf(call.Pos(),
					"raw os.%s can leave a torn file after a crash; write through internal/fsatomic",
					fn.Name())
			}
			return true
		})
	}
	return nil, nil
}
