// Command stayawaylint runs the repository's invariant analyzers (see
// internal/lint) over package patterns and exits non-zero on any finding:
//
//	go run ./cmd/stayawaylint ./...
//
// Findings are suppressed in source with a mandatory-reason directive:
//
//	//lint:stayaway-ignore <analyzer> <reason>
//
// -suppressions lists those directives instead of the findings, each with
// whether it still silences anything.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes, vet-style: 1 is an operational/usage failure, 2 means the
// analysis ran and found violations.
const (
	exitOK       = 0
	exitError    = 1
	exitFindings = 2
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stayawaylint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		asJSON = fs.Bool("json", false, "emit findings as JSON")
		audit  = fs.Bool("suppressions", false, "list //lint:stayaway-ignore directives (file, line, analyzer, reason, liveness) instead of findings")
		dir    = fs.String("C", ".", "directory to resolve package patterns in")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: stayawaylint [flags] [package patterns]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "stayawaylint: %v\n", err)
		return exitError
	}
	findings, sups, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		fmt.Fprintf(stderr, "stayawaylint: %v\n", err)
		return exitError
	}
	if *audit {
		return reportSuppressions(sups, *asJSON, stdout, stderr)
	}
	return report(findings, *asJSON, stdout, stderr)
}

func report(findings []lint.Finding, asJSON bool, stdout, stderr io.Writer) int {
	if asJSON {
		type jsonFinding struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Message  string `json:"message"`
		}
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{f.Analyzer, f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message})
		}
		if err := encode(stdout, out); err != nil {
			fmt.Fprintf(stderr, "stayawaylint: %v\n", err)
			return exitError
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stderr, f)
		}
	}
	if len(findings) > 0 {
		return exitFindings
	}
	return exitOK
}

// reportSuppressions renders the -suppressions audit. Every directive is
// listed with its location, target analyzer, reason, and whether it still
// silences a diagnostic; dead directives are called out so they get
// deleted rather than lingering to swallow a future, different finding.
// The audit always exits 0 — it is an artifact, not a gate.
func reportSuppressions(sups []lint.Suppression, asJSON bool, stdout, stderr io.Writer) int {
	if asJSON {
		type jsonSuppression struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Reason   string `json:"reason"`
			Used     bool   `json:"used"`
		}
		out := make([]jsonSuppression, 0, len(sups))
		for _, s := range sups {
			out = append(out, jsonSuppression{s.File, s.Line, s.Analyzer, s.Reason, s.Used})
		}
		if err := encode(stdout, out); err != nil {
			fmt.Fprintf(stderr, "stayawaylint: %v\n", err)
			return exitError
		}
		return exitOK
	}
	for _, s := range sups {
		status := ""
		if !s.Used {
			status = " [unused — delete this directive]"
		}
		fmt.Fprintf(stdout, "%s:%d: %s: %s%s\n", s.File, s.Line, s.Analyzer, s.Reason, status)
	}
	fmt.Fprintf(stdout, "%d suppression(s)\n", len(sups))
	return exitOK
}

func encode(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
