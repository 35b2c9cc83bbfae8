package registry

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/statespace"
)

func testClock() func() time.Time {
	t := time.Unix(1700000000, 0)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	r, err := Open(Config{Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	a := tpl("vlc", testRanges(),
		[5]float64{0, 0, 0, 0.1, 0.1},
		[5]float64{3, 4, 1, 0.9, 0.8})
	e, err := r.Put("host-a", a)
	if err != nil {
		t.Fatal(err)
	}
	if e.Revision != 1 || e.Hosts["host-a"] != 1 {
		t.Fatalf("entry = %+v", e)
	}
	got, ok := r.Get("vlc", a.SchemaKey())
	if !ok || len(got.Template.States) != 2 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	// Schema-less lookup resolves the app too.
	if _, ok := r.Get("vlc", ""); !ok {
		t.Error("empty-schema Get missed the entry")
	}
	if _, ok := r.Get("nope", ""); ok {
		t.Error("Get invented an entry")
	}
}

func TestPutMergesAcrossHostsAndBumpsRevision(t *testing.T) {
	r, err := Open(Config{Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	a := tpl("vlc", testRanges(),
		[5]float64{0, 0, 0, 0.1, 0.1},
		[5]float64{3, 4, 1, 0.9, 0.8})
	b := tpl("vlc", testRanges(),
		[5]float64{0, 0, 0, 0.1, 0.1},
		[5]float64{-2, 1, 1, 0.2, 0.9})
	if _, err := r.Put("host-a", a); err != nil {
		t.Fatal(err)
	}
	e, err := r.Put("host-b", b)
	if err != nil {
		t.Fatal(err)
	}
	if e.Revision != 2 {
		t.Errorf("revision = %d, want 2", e.Revision)
	}
	if e.Hosts["host-a"] != 1 || e.Hosts["host-b"] != 1 {
		t.Errorf("hosts = %v", e.Hosts)
	}
	if len(e.Template.States) != 3 {
		t.Errorf("consensus states = %d, want 3", len(e.Template.States))
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1 (same key merges)", r.Len())
	}
}

func TestPutRejectsBadTemplates(t *testing.T) {
	r, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("h", &statespace.Template{Version: 99}); err == nil {
		t.Error("invalid version accepted")
	}
	empty := tpl("vlc", testRanges())
	if _, err := r.Put("h", empty); err == nil {
		t.Error("empty template accepted")
	}
	anon := tpl("", testRanges(), [5]float64{0, 0, 0, 0.1, 0.1})
	if _, err := r.Put("h", anon); err == nil {
		t.Error("nameless template accepted")
	}
}

func TestPersistenceSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Config{Dir: dir, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	a := tpl("vlc", testRanges(),
		[5]float64{0, 0, 0, 0.1, 0.1},
		[5]float64{3, 4, 1, 0.9, 0.8})
	if _, err := r.Put("host-a", a); err != nil {
		t.Fatal(err)
	}
	// No temp droppings left behind.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".tmp") {
			t.Errorf("temp file left behind: %s", f.Name())
		}
	}

	r2, err := Open(Config{Dir: dir, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := r2.Get("vlc", a.SchemaKey())
	if !ok {
		t.Fatal("entry lost across reopen")
	}
	if e.Revision != 1 || len(e.Template.States) != 2 || e.Hosts["host-a"] != 1 {
		t.Errorf("reloaded entry = %+v", e)
	}
	// And merging continues where it left off.
	b := tpl("vlc", testRanges(), [5]float64{-2, 1, 1, 0.2, 0.9})
	e2, err := r2.Put("host-b", b)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Revision != 2 || len(e2.Template.States) != 3 {
		t.Errorf("post-reopen merge entry = rev %d, %d states", e2.Revision, len(e2.Template.States))
	}
}

func TestOpenRejectsCorruptEntryFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Error("corrupt entry file silently dropped")
	}
}

func TestDifferentSchemasGetSeparateKeys(t *testing.T) {
	r, err := Open(Config{Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	a := tpl("vlc", testRanges(), [5]float64{0, 0, 0, 0.1, 0.1})
	b := tpl("vlc", testRanges(), [5]float64{0, 0, 0, 0.1, 0.1})
	b.SchemaMetrics = []metrics.Metric{metrics.MetricCPU, metrics.MetricIO}
	if _, err := r.Put("a", a); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("b", b); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2 distinct (app, schema) keys", r.Len())
	}
	// Empty-schema Get picks the most recently updated.
	e, ok := r.Get("vlc", "")
	if !ok || e.Key.Schema != b.SchemaKey() {
		t.Errorf("latest entry = %+v", e)
	}
	if got := len(r.Entries()); got != 2 {
		t.Errorf("Entries = %d, want 2", got)
	}
}

func TestConcurrentPutsAndGets(t *testing.T) {
	r, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(host int) {
			defer wg.Done()
			x := float64(host) / 10
			tp := tpl("vlc", testRanges(), [5]float64{x, x, 1, x, 1 - x})
			for j := 0; j < 5; j++ {
				if _, err := r.Put("host", tp); err != nil {
					t.Error(err)
					return
				}
				r.Get("vlc", "")
				r.Entries()
			}
		}(i)
	}
	wg.Wait()
	e, ok := r.Get("vlc", "")
	if !ok {
		t.Fatal("no entry after concurrent puts")
	}
	if e.Revision != 40 {
		t.Errorf("revision = %d, want 40", e.Revision)
	}
}

func TestEntryFilenameStableAndSafe(t *testing.T) {
	k := Key{App: "vlc/../../etc", Schema: "2vm/cpu,memory"}
	name := entryFilename(k)
	if strings.ContainsAny(name, "/,") {
		t.Errorf("unsafe filename %q", name)
	}
	if name != entryFilename(k) {
		t.Error("filename not deterministic")
	}
	if name == entryFilename(Key{App: "vlc", Schema: "2vm/cpu,memory"}) {
		t.Error("distinct keys collide")
	}
}

// TestPutErrorReleasesLock checks that a Put rejected under the lock — a
// merge failure — leaves the registry usable: an unlock skipped on that
// early return would wedge every later call.
func TestPutErrorReleasesLock(t *testing.T) {
	r, err := Open(Config{Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	legacy := func(cpuMax float64) *statespace.Template {
		return &statespace.Template{Version: 1, SensitiveApp: "vlc", Dim: 1,
			States: []statespace.TemplateState{{Label: "safe", Vector: []float64{0.5}}},
			Ranges: map[metrics.Metric]metrics.Range{metrics.MetricCPU: {Max: cpuMax}}}
	}
	if _, err := r.Put("h", legacy(400)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("h", legacy(800)); err == nil {
		t.Fatal("schema-less templates with differing ranges merged")
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Put("h", legacy(400))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Put after a failed Put: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("registry wedged after a failed Put")
	}
}
