// Package lint is stayawaylint: the static analyzers that machine-enforce
// the repository's safety and determinism contracts — the rules that
// previously lived only in DESIGN.md prose and review vigilance.
//
// The invariant analyzers (see Analyzers) are the ones that passed
// DESIGN.md §9's mutation test: each catches a planted instance of its bug
// class that nothing else catches, and pins one of the safety claims.
// deadcode keeps the module free of code with no caller.
//
//   - ledgeredactuation: the write-ahead ledger is an upper bound on the
//     restrictions in force — every actuation goes through it, and inside
//     the ledger layer every restrictive actuation is recorded first;
//   - atomicwrite: the ledger and checkpoints are replaced atomically, so
//     a crash mid-write cannot tear the record recovery replays;
//   - determinism: same seed ⇒ same bits in the mapping, prediction,
//     simulation and placement packages;
//   - failsafe: an exported core/throttle entry point that acquires a
//     restriction releases it on every exit path, panics included;
//   - deadcode: an exported package-level name under internal/ has a
//     non-test caller somewhere in the module.
//
// failsafe and ledgeredactuation are flow-sensitive: they run a forward
// dataflow over per-function CFGs (lint/cfg, lint/flow) so the invariant
// holds along every path, not just straight-line code. Run the suite with
// `go run ./cmd/stayawaylint ./...`.
//
// A finding can be acknowledged in place with a mandatory-reason
// directive; see DirectivePrefix.
package lint

import (
	"go/token"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// Analyzers returns the full suite, in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		AtomicWriteAnalyzer,
		DeadCodeAnalyzer,
		DeterminismAnalyzer,
		FailsafeAnalyzer,
		LedgeredActuationAnalyzer,
	}
}

// DirectiveAnalyzerName labels findings produced by the suppression
// parser itself (malformed directives). It is not suppressible.
const DirectiveAnalyzerName = "directive"

// Finding is one post-suppression diagnostic with its origin analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return f.Pos.String() + ": " + f.Message + " (" + f.Analyzer + ")"
}

// Run executes the analyzers over the packages and applies
// //lint:stayaway-ignore suppressions. It returns the surviving findings
// sorted by position — malformed directives are findings too, under
// DirectiveAnalyzerName — and every well-formed directive sorted by file
// and line, each marked Used when it silenced at least one diagnostic.
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]Finding, []Suppression, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	referenced := references(pkgs)
	var findings []Finding
	var sups []Suppression
	for _, pkg := range pkgs {
		first := len(sups)
		for _, f := range pkg.Syntax {
			sups = append(sups, fileSuppressions(pkg.Fset, f, known, func(d analysis.Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: DirectiveAnalyzerName,
					Pos:      pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			})...)
		}
		pkgSups := sups[first:]
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Fset:       pkg.Fset,
				Files:      pkg.Syntax,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.TypesInfo,
				Referenced: referenced,
			}
			pass.Report = func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				suppressed := false
				for i := range pkgSups {
					if pkgSups[i].Covers(a.Name, pos.Filename, pos.Line) {
						pkgSups[i].Used = true
						suppressed = true
					}
				}
				if !suppressed {
					findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
				}
			}
			if _, err := a.Run(pass); err != nil {
				return nil, nil, err
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	sort.Slice(sups, func(i, j int) bool {
		if sups[i].File != sups[j].File {
			return sups[i].File < sups[j].File
		}
		return sups[i].Line < sups[j].Line
	})
	return findings, sups, nil
}

// pkgMatches reports whether the package import path denotes one of the
// named repo packages, by path-boundary suffix match — so both the real
// tree ("repro/internal/mds") and the analyzer testdata fakes resolve to
// the same scope.
func pkgMatches(pkgPath string, suffixes ...string) bool {
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// inTestFile reports whether pos falls in a _test.go file. Test code may
// drive actuators and filesystems directly: the invariants protect the
// production control path, and tests are precisely where raw access is
// exercised.
func inTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
