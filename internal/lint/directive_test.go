package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
)

func TestParseDirective(t *testing.T) {
	tests := []struct {
		name     string
		text     string
		ok       bool
		analyzer string
		reason   string
		problem  string
	}{
		{
			name:     "well formed",
			text:     "//lint:stayaway-ignore determinism exact round-trip identity check",
			ok:       true,
			analyzer: "determinism",
			reason:   "exact round-trip identity check",
		},
		{
			name:     "tabs and extra spaces collapse",
			text:     "//lint:stayaway-ignore\tatomicwrite   scratch   file",
			ok:       true,
			analyzer: "atomicwrite",
			reason:   "scratch file",
		},
		{
			name: "ordinary comment",
			text: "// just a comment",
			ok:   false,
		},
		{
			name: "different lint namespace",
			text: "//lint:ignore SA4006 classic staticcheck directive",
			ok:   false,
		},
		{
			name: "prefix glued to other text",
			text: "//lint:stayaway-ignoreX determinism reason",
			ok:   false,
		},
		{
			name:    "bare directive",
			text:    "//lint:stayaway-ignore",
			ok:      true,
			problem: "missing analyzer name and reason",
		},
		{
			name:     "missing reason",
			text:     "//lint:stayaway-ignore determinism",
			ok:       true,
			analyzer: "determinism",
			problem:  "missing reason (a justification is mandatory)",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			analyzer, reason, problem, ok := parseDirective(tt.text)
			if ok != tt.ok {
				t.Fatalf("ok = %v, want %v", ok, tt.ok)
			}
			if analyzer != tt.analyzer || reason != tt.reason || problem != tt.problem {
				t.Errorf("got (%q, %q, %q), want (%q, %q, %q)",
					analyzer, reason, problem, tt.analyzer, tt.reason, tt.problem)
			}
		})
	}
}

func TestFileSuppressions(t *testing.T) {
	const src = `package p

//lint:stayaway-ignore determinism config identity check
var a = 1

//lint:stayaway-ignore determinism
var b = 2

//lint:stayaway-ignore bogus some reason
var c = 3
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var diags []analysis.Diagnostic
	known := map[string]bool{"determinism": true}
	sups := fileSuppressions(fset, f, known, func(d analysis.Diagnostic) {
		diags = append(diags, d)
	})

	if len(sups) != 1 {
		t.Fatalf("got %d suppressions, want 1: %+v", len(sups), sups)
	}
	s := sups[0]
	if s.Analyzer != "determinism" || s.Line != 3 || s.File != "p.go" || s.Reason != "config identity check" {
		t.Errorf("unexpected suppression: %+v", s)
	}

	if len(diags) != 2 {
		t.Fatalf("got %d directive diagnostics, want 2: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "missing reason") {
		t.Errorf("diag 0 = %q, want missing-reason complaint", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, `unknown analyzer "bogus"`) {
		t.Errorf("diag 1 = %q, want unknown-analyzer complaint", diags[1].Message)
	}
}

func TestSuppressionCovers(t *testing.T) {
	s := Suppression{File: "a.go", Line: 10, Analyzer: "determinism", Reason: "r"}
	tests := []struct {
		analyzer string
		file     string
		line     int
		want     bool
	}{
		{"determinism", "a.go", 10, true},  // same line (trailing directive)
		{"determinism", "a.go", 11, true},  // next line (preceding directive)
		{"determinism", "a.go", 12, false}, // two lines below
		{"determinism", "a.go", 9, false},  // line above
		{"atomicwrite", "a.go", 10, false},
		{"determinism", "b.go", 10, false},
	}
	for _, tt := range tests {
		if got := s.Covers(tt.analyzer, tt.file, tt.line); got != tt.want {
			t.Errorf("Covers(%q, %q, %d) = %v, want %v",
				tt.analyzer, tt.file, tt.line, got, tt.want)
		}
	}
}
