package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

func TestLedgeredActuation(t *testing.T) {
	golden(t, lint.LedgeredActuationAnalyzer, "ledgered", "repro/internal/resilience")
}

func TestAtomicWrite(t *testing.T) {
	golden(t, lint.AtomicWriteAnalyzer, "atomicw", "repro/internal/fsatomic")
}

func TestDeterminism(t *testing.T) {
	golden(t, lint.DeterminismAnalyzer,
		"repro/internal/mds", "repro/internal/sched", "repro/internal/workload", "notmath")
}

func TestFailsafe(t *testing.T) {
	golden(t, lint.FailsafeAnalyzer, "repro/internal/core")
}

// TestDeadCode covers a used and an unused name of each kind, names used
// only from another package, only from a test file, only from their own
// declaration or only by an interface assertion, and a suppressed finding.
func TestDeadCode(t *testing.T) {
	sups := golden(t, lint.DeadCodeAnalyzer, "repro/internal/deadcode/a", "repro/internal/deadcode/b")
	if len(sups) != 1 || sups[0].Analyzer != "deadcode" || !sups[0].Used {
		t.Errorf("suppressions = %+v; want the one deadcode directive, used", sups)
	}
}

// TestDeadCodeSubset runs deadcode over part of the golden module. A
// package whose importer is left out of the run is not checked, so none
// of a's names used from b is reported; b, which nothing imports, still
// is.
func TestDeadCodeSubset(t *testing.T) {
	pkgs := loadGolden(t, "repro/internal/deadcode/a", "repro/internal/deadcode/b")
	analyzers := []*analysis.Analyzer{lint.DeadCodeAnalyzer}
	findings, _, err := lint.Run(pkgs[:1], analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("run over a alone reported %s", f)
	}
	findings, _, err = lint.Run(pkgs[1:], analyzers)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "UnusedInB") {
		t.Errorf("run over b alone = %v; want only UnusedInB", findings)
	}
}

// TestAuditSuppressions checks the liveness record lint.Run keeps for the
// suppress fixture: the atomicwrite directive on line 10 silences line 11
// (used); the determinism one on line 21 names the wrong analyzer for its
// site (unused).
func TestAuditSuppressions(t *testing.T) {
	_, sups, err := lint.Run(loadGolden(t, "suppress"), lint.Analyzers())
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	if len(sups) != 2 {
		for _, s := range sups {
			t.Logf("suppression: %s:%d %s used=%v", s.File, s.Line, s.Analyzer, s.Used)
		}
		t.Fatalf("got %d suppressions, want 2", len(sups))
	}
	if s := sups[0]; s.Line != 10 || s.Analyzer != "atomicwrite" || !s.Used {
		t.Errorf("sups[0] = %s:%d %s used=%v; want line 10 atomicwrite used", s.File, s.Line, s.Analyzer, s.Used)
	}
	if s := sups[1]; s.Line != 21 || s.Analyzer != "determinism" || s.Used {
		t.Errorf("sups[1] = %s:%d %s used=%v; want line 21 determinism unused", s.File, s.Line, s.Analyzer, s.Used)
	}
}

// TestSuppressionIntegration runs the full pipeline — all analyzers plus
// directive parsing — over testdata/src/suppress and pins down exactly
// which findings survive: a well-formed directive silences its line, a
// malformed or unknown one is itself a finding and silences nothing, and
// a directive naming the wrong analyzer leaves the original finding
// standing.
func TestSuppressionIntegration(t *testing.T) {
	findings, _, err := lint.Run(loadGolden(t, "suppress"), lint.Analyzers())
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	want := []struct {
		line     int
		analyzer string
		contains string
	}{
		{13, "atomicwrite", "torn file"},
		{15, lint.DirectiveAnalyzerName, "missing reason"},
		{16, "atomicwrite", "torn file"},
		{18, lint.DirectiveAnalyzerName, `unknown analyzer "nosuchanalyzer"`},
		{19, "atomicwrite", "torn file"},
		{22, "atomicwrite", "torn file"},
	}
	if len(findings) != len(want) {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want %d", len(findings), len(want))
	}
	for i, w := range want {
		f := findings[i]
		if f.Pos.Line != w.line || f.Analyzer != w.analyzer || !strings.Contains(f.Message, w.contains) {
			t.Errorf("finding %d = %s; want line %d analyzer %s containing %q",
				i, f, w.line, w.analyzer, w.contains)
		}
	}
	// The suppressed call on line 11 must not appear at all.
	for _, f := range findings {
		if f.Pos.Line == 11 {
			t.Errorf("suppressed line 11 still reported: %s", f)
		}
	}
}
