package procenv

import (
	"os"
	"path/filepath"
	"testing"
)

// staticQoS always reports the same report.
type staticQoS struct {
	value, threshold float64
}

func (s staticQoS) QoS() (float64, float64, bool) { return s.value, s.threshold, true }

// newTestEnv builds a host environment over a fixture /proc with one
// sensitive process (pid 100, group "svc") and one batch process (pid
// 200, group "jobs"), and binds the sensitive application's signals.
func newTestEnv(t *testing.T, qos QoSSource) (*HostEnv, *AppSignals, string) {
	t.Helper()
	root := t.TempDir()
	writeFakeProc(t, root, 100, "sensitive", 'R', 0, 0, 1024, 0, 0)
	writeFakeProc(t, root, 200, "batch", 'R', 0, 0, 2048, 0, 0)
	c, err := NewCollector(root, 100, []Group{
		{Name: "svc", PIDs: []int{100}},
		{Name: "jobs", PIDs: []int{200}},
	})
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewHostEnv(c, []string{"jobs"})
	if err != nil {
		t.Fatal(err)
	}
	sig, err := env.Signals("svc", qos)
	if err != nil {
		t.Fatal(err)
	}
	return env, sig, root
}

func TestNewEnvironmentValidation(t *testing.T) {
	root := t.TempDir()
	c, err := NewCollector(root, 100, []Group{{Name: "svc"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHostEnv(nil, nil); err == nil {
		t.Error("nil collector should error")
	}
	if _, err := NewHostEnv(c, []string{"ghost"}); err == nil {
		t.Error("unknown batch group should error")
	}
	env, err := NewHostEnv(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Signals("svc", nil); err == nil {
		t.Error("nil QoS source should error")
	}
	if _, err := env.Signals("ghost", staticQoS{}); err == nil {
		t.Error("unknown sensitive group should error")
	}
}

func TestEnvironmentRoles(t *testing.T) {
	env, sig, root := newTestEnv(t, staticQoS{1, 0.9})
	if !sig.SensitiveRunning() || !env.BatchRunning() || !env.BatchActive() {
		t.Error("both groups should be running")
	}
	if sig.QoSViolation() {
		t.Error("value 1 ≥ threshold 0.9: no violation")
	}
	samples := env.Collect()
	if len(samples) != 2 {
		t.Fatalf("samples = %d", len(samples))
	}

	// SIGSTOP the batch process (state T): not running, still active.
	writeFakeProc(t, root, 200, "batch", 'T', 0, 0, 2048, 0, 0)
	if env.BatchRunning() {
		t.Error("stopped batch should not be running")
	}
	if !env.BatchActive() {
		t.Error("stopped batch still has work")
	}
}

func TestEnvironmentViolation(t *testing.T) {
	_, sig, root := newTestEnv(t, staticQoS{0.5, 0.9})
	if !sig.QoSViolation() {
		t.Error("value 0.5 < threshold 0.9: violation expected")
	}
	// A dead sensitive process never violates (there is nothing to protect).
	if err := os.RemoveAll(filepath.Join(root, "100")); err != nil {
		t.Fatal(err)
	}
	if sig.QoSViolation() {
		t.Error("no sensitive process: no violation")
	}
}

// A missing or unparsable report is silence, not health: the period
// reads as stale. A sensitive application that is not running is not
// expected to report, so its silence reads as fresh.
func TestAppSignalsQoSFreshness(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qos")
	_, sig, root := newTestEnv(t, FileQoS{Path: path})
	if !sig.QoSFresh() {
		t.Error("freshness must start true: no evidence of silence yet")
	}
	if err := os.WriteFile(path, []byte("0.5 0.9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !sig.QoSViolation() || !sig.QoSFresh() {
		t.Error("a parsable report must read as fresh")
	}
	for _, report := range []string{"garbage\n", ""} {
		if report == "" {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
			t.Fatal(err)
		}
		if sig.QoSViolation() || sig.QoSFresh() {
			t.Errorf("report %q: want no violation and a stale signal", report)
		}
	}
	if err := os.RemoveAll(filepath.Join(root, "100")); err != nil {
		t.Fatal(err)
	}
	if sig.QoSViolation() || !sig.QoSFresh() {
		t.Error("a sensitive application that is not running must read as fresh")
	}
}

func TestFileQoS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qos")
	f := FileQoS{Path: path}
	if _, _, ok := f.QoS(); ok {
		t.Error("missing file should report not-ok")
	}
	if err := os.WriteFile(path, []byte("0.87 0.9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	v, th, ok := f.QoS()
	if !ok || v != 0.87 || th != 0.9 {
		t.Errorf("qos = %v %v %v", v, th, ok)
	}
	if err := os.WriteFile(path, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := f.QoS(); ok {
		t.Error("malformed report should report not-ok")
	}
	if err := os.WriteFile(path, []byte("0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := f.QoS(); ok {
		t.Error("single-field report should report not-ok")
	}
}
