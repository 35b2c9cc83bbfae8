package registry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestShardedRoutingAndListing(t *testing.T) {
	s, err := Open(Config{Now: testClock(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	apps := []string{"vlc-stream", "kv-store", "web-api", "ml-batch"}
	for _, app := range apps {
		// Routing is a pure function of the app name: any instance with
		// the same shard count agrees.
		other, err := Open(Config{Now: testClock(), Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		if s.ShardFor(app) != other.ShardFor(app) {
			t.Errorf("ShardFor(%q) differs across instances", app)
		}
		if got := s.ShardFor(app); got < 0 || got >= s.Shards() {
			t.Errorf("ShardFor(%q) = %d, out of range", app, got)
		}
		if _, err := s.Put("host-a", tpl(app, testRanges(),
			[5]float64{0, 0, 0, 0.1, 0.1},
			[5]float64{3, 4, 1, 0.9, 0.8})); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != len(apps) {
		t.Fatalf("Len() = %d, want %d", s.Len(), len(apps))
	}
	for _, app := range apps {
		e, ok := s.Get(app, "")
		if !ok || e.Revision != 1 || e.Template.SensitiveApp != app {
			t.Fatalf("Get(%q) = %+v, %v", app, e, ok)
		}
		if d, ok := s.DeltaSince(app, "", 0); !ok || !d.Full {
			t.Fatalf("DeltaSince(%q, 0) = %+v, %v", app, d, ok)
		}
	}

	// Entries is merged across shards and sorted by key, not shard order.
	entries := s.Entries()
	if len(entries) != len(apps) {
		t.Fatalf("Entries() = %d entries, want %d", len(entries), len(apps))
	}
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.Key.String()
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("Entries() not sorted: %v", keys)
	}
}

func TestShardedPersistencePinsShardCount(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Now: testClock(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("host-a", tpl("vlc", testRanges(),
		[5]float64{0, 0, 0, 0.1, 0.1})); err != nil {
		t.Fatal(err)
	}

	// Reopening with the pinned count reloads the entry from its shard.
	s2, err := Open(Config{Dir: dir, Now: testClock(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := s2.Get("vlc", ""); !ok || e.Revision != 1 {
		t.Fatalf("reloaded Get = %+v, %v", e, ok)
	}

	// A different count would re-route apps away from their history:
	// refused.
	if _, err := Open(Config{Dir: dir, Now: testClock(), Shards: 8}); err == nil {
		t.Fatal("reopen with a different shard count accepted")
	}

	// The shard layout on disk is one subdirectory per shard plus the pin,
	// and the entry lives in its app's shard.
	if _, err := os.Stat(filepath.Join(dir, "shards.json")); err != nil {
		t.Errorf("shard marker missing: %v", err)
	}
	shardDir := filepath.Join(dir, fmt.Sprintf("shard-%02d", s.ShardFor("vlc")))
	if files, err := os.ReadDir(shardDir); err != nil || len(files) != 1 {
		t.Errorf("shard dir %s holds %d files (err %v), want the vlc entry", shardDir, len(files), err)
	}
}

// Shards 0 means one shard, so an unsharded store reopens a directory
// written with Shards: 1.
func TestZeroShardsMeansOne(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Config{Dir: dir, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", r.Shards())
	}
	if _, err := r.Put("host-a", tpl("vlc", testRanges(), [5]float64{0, 0, 0, 0.1, 0.1})); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(Config{Dir: dir, Now: testClock(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := r2.Get("vlc", ""); !ok || e.Revision != 1 {
		t.Fatalf("reloaded Get = %+v, %v", e, ok)
	}
}

// TestCorruptVersionVectorServesFull tampers with a persisted entry's
// state_revs so it no longer lines up with the states, reopens the
// registry, and checks delta sync degrades to a Full replacement instead
// of shipping a wrong (or panicking) patch.
func TestCorruptVersionVectorServesFull(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Config{Dir: dir, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("host-a", tpl("vlc", testRanges(),
		[5]float64{0, 0, 0, 0.1, 0.1},
		[5]float64{3, 4, 1, 0.9, 0.8})); err != nil {
		t.Fatal(err)
	}
	e, err := r.Put("host-b", tpl("vlc", testRanges(),
		[5]float64{5, 5, 1, 0.5, 0.4}))
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: with an intact vector, a client at revision 1 gets an
	// incremental patch.
	if d, ok := r.DeltaSince("vlc", "", e.Revision-1); !ok || d.Full || len(d.Patch.States) != 1 {
		t.Fatalf("intact delta = %+v, %v", d, ok)
	}

	// Corrupt the persisted vector: truncate state_revs to one element.
	shardDir := filepath.Join(dir, "shard-00")
	files, err := os.ReadDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	tampered := 0
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") {
			continue
		}
		path := filepath.Join(shardDir, f.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(raw, &obj); err != nil {
			t.Fatal(err)
		}
		if _, ok := obj["state_revs"]; !ok {
			continue
		}
		obj["state_revs"] = json.RawMessage(`[1]`)
		out, err := json.Marshal(obj)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		tampered++
	}
	if tampered == 0 {
		t.Fatal("no persisted entry carried state_revs to tamper with")
	}

	r2, err := Open(Config{Dir: dir, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := r2.DeltaSince("vlc", "", e.Revision-1)
	if !ok || d == nil {
		t.Fatalf("DeltaSince after corruption = %+v, %v", d, ok)
	}
	if !d.Full {
		t.Fatalf("corrupt vector served an incremental delta: %+v", d)
	}
	if len(d.Patch.States) != 3 || d.ToRevision != e.Revision {
		t.Fatalf("full fallback = %d states to rev %d, want 3 to %d",
			len(d.Patch.States), d.ToRevision, e.Revision)
	}
}
