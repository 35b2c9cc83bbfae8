package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// DeadCodeAnalyzer reports exported package-level functions, types,
// variables and constants under internal/ that no non-test file of the
// module refers to. Such a name is code with no caller: the tests that
// pin it test nothing the program runs.
//
// A reference from inside the name's own declaration does not count: a
// recursive call, a type's own methods, a type that names itself in its
// fields. Methods are out of scope, because interface satisfaction hides
// their callers. References are gathered over every package of the run,
// so a package is checked only when the run also holds every module
// package that imports it: a run over a subset never reports a name that
// a package left out of the run might use.
var DeadCodeAnalyzer = &analysis.Analyzer{
	Name: "deadcode",
	Run:  runDeadCode,
}

func runDeadCode(pass *analysis.Pass) (any, error) {
	if p := pass.Pkg.Path(); !strings.HasPrefix(p, "internal/") && !strings.Contains(p, "/internal/") {
		return nil, nil
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() || inTestFile(pass.Fset, obj.Pos()) || pass.Referenced(obj) {
			continue
		}
		pass.Reportf(obj.Pos(), "%s %s is referenced by no non-test file of the module; delete it", objectKind(obj), name)
	}
	return nil, nil
}

func objectKind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// references indexes the package-level objects that the run's non-test
// files refer to, and answers Pass.Referenced from the index. Objects are
// keyed by package path and name: a package sees its imports through
// export data, so one name is a different types.Object in its own package
// than in each importer.
func references(pkgs []*load.Package) func(types.Object) bool {
	inRun := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		inRun[pkg.PkgPath] = true
	}
	partial := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, imp := range pkg.ImportedBy {
			if !inRun[imp] {
				partial[pkg.PkgPath] = true
			}
		}
	}
	used := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			if inTestFile(pkg.Fset, f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				markUses(decl, pkg.TypesInfo, used)
			}
		}
	}
	return func(obj types.Object) bool {
		return partial[obj.Pkg().Path()] || used[objectKey(obj)]
	}
}

// markUses records every package-level object decl refers to, except the
// objects decl itself declares (or, for a method, its receiver's type).
func markUses(decl ast.Decl, info *types.Info, used map[string]bool) {
	mark := func(n ast.Node, self []types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Scope().Lookup(obj.Name()) != obj {
				return true
			}
			for _, s := range self {
				if s == obj {
					return true
				}
			}
			used[objectKey(obj)] = true
			return true
		})
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		var self types.Object = info.Defs[d.Name]
		if d.Recv != nil && len(d.Recv.List) == 1 {
			t := info.TypeOf(d.Recv.List[0].Type)
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				self = named.Obj()
			}
		}
		mark(d, []types.Object{self})
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			var self []types.Object
			switch s := spec.(type) {
			case *ast.TypeSpec:
				self = append(self, info.Defs[s.Name])
			case *ast.ValueSpec:
				if blankOnly(s.Names) {
					continue // `var _ I = (*T)(nil)` asserts, it does not use
				}
				for _, id := range s.Names {
					self = append(self, info.Defs[id])
				}
			}
			mark(spec, self)
		}
	}
}

func blankOnly(names []*ast.Ident) bool {
	for _, id := range names {
		if id.Name != "_" {
			return false
		}
	}
	return true
}

func objectKey(obj types.Object) string { return obj.Pkg().Path() + "." + obj.Name() }
