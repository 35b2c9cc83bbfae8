// Package analysis is a deliberately small, dependency-free subset of
// golang.org/x/tools/go/analysis: enough surface for stayawaylint's
// analyzers to be written in the standard shape, so that a future move
// onto the real framework (once the module is vendorable in this build
// environment) is close to an import swap. The one addition is
// Pass.Referenced: deadcode needs to know what the package's importers
// use, which x/tools' dependency-ordered facts cannot carry.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker. Run inspects a single
// type-checked package via the Pass and reports findings through
// Pass.Report; it must not retain the Pass after returning.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and
	// //lint:stayaway-ignore directives. It must be a valid identifier.
	Name string
	// Run performs the analysis. The returned value is unused by this
	// driver (it exists for x/tools signature compatibility).
	Run func(*Pass) (any, error)
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	// Fset maps token positions to file locations.
	Fset *token.FileSet
	// Files are the package's parsed source files, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds Uses, Defs, Types and Selections for the package.
	TypesInfo *types.Info
	// Referenced reports whether some non-test file of the module refers
	// to the package-level object obj from outside obj's own declaration.
	// It answers for the whole run, not just this package, and answers
	// true when the run leaves out a package that could refer to obj.
	Referenced func(obj types.Object) bool
	// Report delivers one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
