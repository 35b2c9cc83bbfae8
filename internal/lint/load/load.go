// Package load turns package patterns into type-checked syntax trees for
// the lint analyzers, using only the standard library and the go command.
//
// It shells out to `go list -export -json -deps`, which both resolves the
// patterns and compiles every dependency into the build cache, then
// type-checks the target packages from source with imports satisfied from
// the cached export data (via go/importer's gc mode with a lookup
// function). This is the same division of labour as
// golang.org/x/tools/go/packages, minus the dependency — the build
// environment for this repository cannot fetch modules.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked target package.
type Package struct {
	// PkgPath is the import path ("repro/internal/mds").
	PkgPath string
	// Dir is the package's source directory.
	Dir string
	// GoFiles are the parsed file names, relative to Dir.
	GoFiles []string
	// Fset positions Syntax; shared across all packages of one Load call.
	Fset *token.FileSet
	// Syntax holds one parsed file per GoFiles entry, with comments.
	Syntax []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// TypesInfo records uses, defs, types and selections.
	TypesInfo *types.Info
	// ImportedBy lists the packages of the package's module whose non-test
	// files import it — every package outside it that can refer to its
	// names.
	ImportedBy []string
}

// ListedPackage is the subset of `go list -json` output the loader
// consumes.
type ListedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	DepOnly    bool
	Module     *struct {
		Dir  string
		Main bool
	}
	Error *struct{ Err string }
}

// ExportIndex maps import paths to compiled export-data files. The gc
// importer resolves every import — including transitive ones — through
// this index, so it must cover the full dependency closure.
type ExportIndex map[string]string

// Importer returns a types.Importer that reads from the index.
func (x ExportIndex) Importer(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := x[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(file)
	})
}

// GoList runs `go list -export -json -deps` in dir on the given patterns
// and returns the decoded package stream. Compilation errors in the tree
// surface here, before any analysis runs.
func GoList(dir string, patterns ...string) ([]ListedPackage, error) {
	return goList(dir, []string{"-export", "-json", "-deps"}, patterns)
}

func goList(dir string, flags, patterns []string) ([]ListedPackage, error) {
	args := append(append([]string{"list"}, flags...), "--")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("load: go list %s: %s", strings.Join(patterns, " "), msg)
	}
	var pkgs []ListedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p ListedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Index builds an ExportIndex from a go list stream, applying each
// package's ImportMap so vendored or otherwise remapped import strings
// resolve to the export data of the package they actually denote.
func Index(pkgs []ListedPackage) ExportIndex {
	x := make(ExportIndex, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			x[p.ImportPath] = p.Export
		}
	}
	for _, p := range pkgs {
		for from, to := range p.ImportMap {
			if e, ok := x[to]; ok {
				x[from] = e
			}
		}
	}
	return x
}

// Load type-checks the packages matching patterns (as the go command in
// dir resolves them, e.g. "./...") and returns them in deterministic
// (import path) order. Test files are not loaded: the analyzers' test
// exemption is a package-path/file-name rule applied by the suite, and
// the tree's _test.go files are exercised by `go test`, not linted.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := GoList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", p.ImportPath, p.Error.Err)
		}
	}
	importedBy, err := moduleImporters(listed)
	if err != nil {
		return nil, err
	}
	index := Index(listed)
	fset := token.NewFileSet()
	imp := index.Importer(fset)
	var out []*Package
	for _, p := range listed {
		if p.DepOnly {
			continue
		}
		var paths []string
		for _, g := range p.GoFiles {
			paths = append(paths, filepath.Join(p.Dir, g))
		}
		pkg, err := Check(fset, imp, p.ImportPath, paths)
		if err != nil {
			return nil, err
		}
		pkg.Dir = p.Dir
		pkg.GoFiles = append(pkg.GoFiles, p.GoFiles...)
		pkg.ImportedBy = importedBy[p.ImportPath]
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// moduleImporters lists every package of the main module the targets
// belong to, and maps each import path to the module packages whose
// non-test files import it.
func moduleImporters(listed []ListedPackage) (map[string][]string, error) {
	for _, p := range listed {
		if p.DepOnly || p.Module == nil || !p.Module.Main {
			continue
		}
		mod, err := goList(p.Module.Dir, []string{"-json=ImportPath,Imports"}, []string{"./..."})
		if err != nil {
			return nil, err
		}
		importedBy := make(map[string][]string)
		for _, m := range mod {
			for _, imp := range m.Imports {
				importedBy[imp] = append(importedBy[imp], m.ImportPath)
			}
		}
		return importedBy, nil
	}
	return nil, nil
}

// Check parses the named files and type-checks them as package pkgPath,
// resolving imports through imp. It is the shared core of Load and the
// golden-package harness of the lint tests.
func Check(fset *token.FileSet, imp types.Importer, pkgPath string, files []string) (*Package, error) {
	var syntax []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: %v", err)
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %v", pkgPath, err)
	}
	return &Package{
		PkgPath:   pkgPath,
		Fset:      fset,
		Syntax:    syntax,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
