package lint_test

// The golden-package harness, in the style of
// golang.org/x/tools/go/analysis/analysistest: an analyzer runs through
// lint.Run over packages under testdata/src, and its findings are checked
// against `// want` comments.
//
// The layout mirrors a GOPATH: testdata/src/<import/path>/*.go, test
// files included. Imports resolve testdata-first — so golden packages can
// import small fakes of repository packages (e.g. "repro/internal/throttle")
// without depending on the real ones — and fall back to the standard
// library through compiled export data from `go list -export`.
//
// A want comment asserts findings on its own line:
//
//	act.Pause(ids) // want `bypasses the actuation ledger`
//
// Every quoted or backquoted pattern must match (as an unanchored regexp)
// a finding on that line, and every finding must be claimed by a pattern.

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// golden runs a over the golden packages and checks its findings against
// their want comments. It returns the run's suppression record.
func golden(t *testing.T, a *analysis.Analyzer, pkgPaths ...string) []lint.Suppression {
	t.Helper()
	pkgs := loadGolden(t, pkgPaths...)
	findings, sups, err := lint.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	checkWants(t, pkgs, findings)
	return sups
}

// loadGolden type-checks golden packages without running any analyzer.
// Each package's ImportedBy lists the golden packages loaded alongside it
// (as requested packages or their imports) that import it.
func loadGolden(t *testing.T, pkgPaths ...string) []*load.Package {
	t.Helper()
	r := &resolver{
		root:  filepath.Join("testdata", "src"),
		fset:  token.NewFileSet(),
		cache: make(map[string]*load.Package),
	}
	var out []*load.Package
	for _, path := range pkgPaths {
		pkg, err := r.load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		out = append(out, pkg)
	}
	for _, p := range r.cache {
		for _, imp := range p.Types.Imports() {
			if q, ok := r.cache[imp.Path()]; ok {
				q.ImportedBy = append(q.ImportedBy, p.PkgPath)
			}
		}
	}
	return out
}

// checkWants diffs findings against the packages' want comments.
func checkWants(t *testing.T, pkgs []*load.Package, findings []lint.Finding) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					patterns, err := wantPatterns(c.Text)
					if err != nil {
						t.Errorf("%s: %v", pkg.Fset.Position(c.Pos()), err)
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					k := key{pos.Filename, pos.Line}
					for _, p := range patterns {
						rx, err := regexp.Compile(p)
						if err != nil {
							t.Errorf("%s: bad want pattern %q: %v", pos, p, err)
							continue
						}
						wants[k] = append(wants[k], rx)
					}
				}
			}
		}
	}

	matched := make(map[key][]bool)
	for k, rxs := range wants {
		matched[k] = make([]bool, len(rxs))
	}
	for _, f := range findings {
		k := key{f.Pos.Filename, f.Pos.Line}
		claimed := false
		for i, rx := range wants[k] {
			if rx.MatchString(f.Message) {
				matched[k][i] = true
				claimed = true
			}
		}
		if !claimed {
			t.Errorf("%s: unexpected finding: %s", f.Pos, f.Message)
		}
	}
	var keys []key
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for i, ok := range matched[k] {
			if !ok {
				t.Errorf("%s:%d: no finding matching %q", k.file, k.line, wants[k][i])
			}
		}
	}
}

// wantPatterns extracts the regexp literals from a "// want ..." comment.
// Both Go-quoted and backquoted forms are accepted.
func wantPatterns(comment string) ([]string, error) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	if !strings.HasPrefix(text, "want ") {
		return nil, nil
	}
	rest := strings.TrimSpace(text[len("want "):])
	var out []string
	for rest != "" {
		switch rest[0] {
		case '"':
			end := -1
			for i := 1; i < len(rest); i++ {
				if rest[i] == '\\' {
					i++
					continue
				}
				if rest[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated want pattern: %s", rest)
			}
			s, err := strconv.Unquote(rest[:end+1])
			if err != nil {
				return nil, fmt.Errorf("bad want pattern %s: %v", rest[:end+1], err)
			}
			out = append(out, s)
			rest = strings.TrimSpace(rest[end+1:])
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated want pattern: %s", rest)
			}
			out = append(out, rest[1:end+1])
			rest = strings.TrimSpace(rest[end+2:])
		default:
			return nil, fmt.Errorf("want patterns must be quoted or backquoted: %s", rest)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("want comment with no patterns")
	}
	return out, nil
}

// resolver loads golden packages, resolving imports testdata-first with a
// standard-library fallback through compiled export data.
type resolver struct {
	root    string
	fset    *token.FileSet
	cache   map[string]*load.Package
	exports load.ExportIndex
	// std is the one gc importer for all non-testdata imports: a single
	// instance is essential so that a package imported both directly and
	// transitively resolves to one *types.Package identity.
	std types.Importer
}

func (r *resolver) Import(path string) (*types.Package, error) {
	dir := filepath.Join(r.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, err := r.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return r.importStd(path)
}

// load type-checks the golden package at testdata/src/<path>.
func (r *resolver) load(path string) (*load.Package, error) {
	if pkg, ok := r.cache[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(r.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("golden: no .go files in %s", dir)
	}
	sort.Strings(files)
	pkg, err := load.Check(r.fset, r, path, files)
	if err != nil {
		return nil, err
	}
	pkg.Dir = dir
	r.cache[path] = pkg
	return pkg, nil
}

// importStd resolves a non-testdata import from the real build, fetching
// export data (and that of its transitive dependencies) on first use.
func (r *resolver) importStd(path string) (*types.Package, error) {
	if r.exports == nil {
		r.exports = make(load.ExportIndex)
		// The importer's lookup closure reads r.exports live, so export
		// data added by later GoList calls is visible to it.
		r.std = r.exports.Importer(r.fset)
	}
	if _, ok := r.exports[path]; !ok {
		listed, err := load.GoList(r.root, path)
		if err != nil {
			return nil, err
		}
		for p, e := range load.Index(listed) {
			r.exports[p] = e
		}
	}
	return r.std.Import(path)
}
