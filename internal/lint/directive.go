package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"repro/internal/lint/analysis"
)

// DirectivePrefix introduces a suppression comment. The full grammar is
//
//	//lint:stayaway-ignore <analyzer> <reason>
//
// where <analyzer> names a registered analyzer and <reason> is mandatory
// free text explaining why the invariant is deliberately bypassed at this
// site. A directive suppresses that analyzer's diagnostics on its own
// line and, when it stands alone on a line, on the line directly below —
// so it can trail the offending statement or precede it.
//
// Malformed directives (unknown analyzer, missing reason, missing
// analyzer) are themselves diagnostics: a suppression that silently never
// matches would be worse than the finding it was meant to acknowledge.
const DirectivePrefix = "//lint:stayaway-ignore"

// Suppression is one parsed, well-formed directive.
type Suppression struct {
	// File is the file name as recorded in the token.FileSet.
	File string
	// Line is the line the directive comment starts on.
	Line int
	// Analyzer is the analyzer being suppressed.
	Analyzer string
	// Reason is the mandatory justification text.
	Reason string
	// Used is set by Run when the directive silenced at least one
	// diagnostic. A directive left unused no longer matches the code it
	// acknowledged and should be deleted before it silently swallows a
	// future, different finding.
	Used bool
}

// Covers reports whether a diagnostic from analyzer at (file, line) is
// silenced by this suppression.
func (s Suppression) Covers(analyzer, file string, line int) bool {
	return s.Analyzer == analyzer && s.File == file &&
		(line == s.Line || line == s.Line+1)
}

// parseDirective splits one comment's text. ok is false when the comment
// is not a stayaway-ignore directive at all; a directive that is present
// but malformed returns ok=true with a non-empty problem string.
func parseDirective(text string) (analyzer, reason, problem string, ok bool) {
	if !strings.HasPrefix(text, DirectivePrefix) {
		return "", "", "", false
	}
	rest := text[len(DirectivePrefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		// e.g. //lint:stayaway-ignoreX — some other (unknown) directive.
		return "", "", "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", "missing analyzer name and reason", true
	}
	analyzer = fields[0]
	if len(fields) == 1 {
		return analyzer, "", "missing reason (a justification is mandatory)", true
	}
	return analyzer, strings.Join(fields[1:], " "), "", true
}

// fileSuppressions extracts every directive in f. Well-formed directives
// naming a registered analyzer become Suppressions; everything else in
// directive form is reported through report (positioned at the comment).
func fileSuppressions(fset *token.FileSet, f *ast.File, known map[string]bool, report func(analysis.Diagnostic)) []Suppression {
	var out []Suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			analyzer, reason, problem, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			if problem != "" {
				report(analysis.Diagnostic{Pos: c.Pos(), Message: "malformed " + DirectivePrefix + " directive: " + problem})
				continue
			}
			if !known[analyzer] {
				report(analysis.Diagnostic{Pos: c.Pos(), Message: fmt.Sprintf("malformed %s directive: unknown analyzer %q", DirectivePrefix, analyzer)})
				continue
			}
			pos := fset.Position(c.Pos())
			out = append(out, Suppression{
				File:     pos.Filename,
				Line:     pos.Line,
				Analyzer: analyzer,
				Reason:   reason,
			})
		}
	}
	return out
}
