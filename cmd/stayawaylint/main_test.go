package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBadFlagIsUsageError(t *testing.T) {
	// Only -json, -suppressions and -C exist: the vet-tool handshake and
	// analyzer selection flags are usage errors like any unknown flag.
	for _, flag := range []string{"-nosuchflag", "-V=full", "-flags", "-list", "-enable=atomicwrite", "-disable=deadcode"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{flag}, &stdout, &stderr); code != exitError {
			t.Errorf("run(%s) = %d, want %d", flag, code, exitError)
		}
	}
}

// TestRunFindingsExitCode builds a throwaway module with one atomicwrite
// violation and checks the full standalone path: exit 2 plus a
// file:line diagnostic naming the analyzer.
func TestRunFindingsExitCode(t *testing.T) {
	dir := t.TempDir()
	writeTestFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.22\n")
	writeTestFile(t, filepath.Join(dir, "a.go"), `package scratch

import "os"

func save(p string, b []byte) error {
	return os.WriteFile(p, b, 0o644)
}
`)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "./..."}, &stdout, &stderr)
	if code != exitFindings {
		t.Fatalf("run over violating module = %d, want %d (stderr: %s)", code, exitFindings, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "a.go:6:") || !strings.Contains(out, "(atomicwrite)") {
		t.Errorf("diagnostic missing position or analyzer tag:\n%s", out)
	}

	// JSON mode reports the same finding on stdout.
	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-C", dir, "-json", "./..."}, &stdout, &stderr)
	if code != exitFindings {
		t.Fatalf("json run = %d, want %d", code, exitFindings)
	}
	if !strings.Contains(stdout.String(), `"analyzer": "atomicwrite"`) {
		t.Errorf("json output missing analyzer field:\n%s", stdout.String())
	}
}

func TestRunCleanExitCode(t *testing.T) {
	dir := t.TempDir()
	writeTestFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.22\n")
	writeTestFile(t, filepath.Join(dir, "a.go"), `package scratch

func Nothing() {}
`)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != exitOK {
		t.Fatalf("run over clean module = %d, want %d (stderr: %s)", code, exitOK, stderr.String())
	}
}

// TestSuppressionsAudit checks the -suppressions listing: a directive that
// silences a finding is listed plainly, one that silences nothing is
// flagged for deletion, and the audit exits 0 either way.
func TestSuppressionsAudit(t *testing.T) {
	dir := t.TempDir()
	writeTestFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.22\n")
	writeTestFile(t, filepath.Join(dir, "a.go"), `package scratch

import "os"

func save(p string, b []byte) error {
	//lint:stayaway-ignore atomicwrite scratch output, rewritten every run
	return os.WriteFile(p, b, 0o644)
}

//lint:stayaway-ignore determinism nothing here to silence
func nothing() {}
`)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-suppressions", "./..."}, &stdout, &stderr); code != exitOK {
		t.Fatalf("audit = %d, want %d (stderr: %s)", code, exitOK, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 3 || lines[2] != "2 suppression(s)" {
		t.Fatalf("audit output:\n%s", stdout.String())
	}
	if !strings.Contains(lines[0], "a.go:6: atomicwrite: scratch output") || strings.Contains(lines[0], "unused") {
		t.Errorf("live directive line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "a.go:10: determinism:") || !strings.Contains(lines[1], "[unused") {
		t.Errorf("dead directive line = %q", lines[1])
	}
}

func writeTestFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
