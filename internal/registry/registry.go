// Package registry implements the fleet-wide template store behind the
// Stay-Away control plane (§6 scaled out): a versioned, concurrency-safe
// map of learned state-space templates keyed by (sensitive application,
// metric schema), with atomic file-backed persistence and
// Procrustes-aligned merging of templates uploaded by different hosts.
// One host's learning-phase QoS violations become every host's head start.
package registry

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fsatomic"
	"repro/internal/statespace"
)

// Key identifies one consensus template: maps are only mergeable across
// hosts running the same sensitive application under the same measurement
// schema.
type Key struct {
	// App is the sensitive application name (Template.SensitiveApp).
	App string `json:"app"`
	// Schema is the template's schema fingerprint (Template.SchemaKey).
	Schema string `json:"schema"`
}

func (k Key) String() string { return k.App + "@" + k.Schema }

// Entry is one stored consensus template with its version history metadata.
type Entry struct {
	Key Key `json:"key"`
	// Revision increments on every accepted Put; clients use it for
	// cheap freshness checks.
	Revision int `json:"revision"`
	// Hosts counts accepted contributions per uploading host.
	Hosts map[string]int `json:"hosts"`
	// UpdatedAt is the wall-clock time of the last accepted Put.
	UpdatedAt time.Time `json:"updated_at"`
	// Template is the merged consensus map. Treated as immutable once
	// stored: every Put builds a fresh template, so callers may hold the
	// pointer but must not mutate it.
	Template *statespace.Template `json:"template"`
	// StateRevs is the per-state version vector, aligned with
	// Template.States: StateRevs[i] is the revision at which state i last
	// changed (appeared, or had its label upgraded). Delta sync ships only
	// the states with StateRevs[i] > the client's revision. Weight drift
	// deliberately does not bump a state's revision — every push folds
	// weight into revisited states, and versioning that would make every
	// delta a full resend.
	StateRevs []int `json:"state_revs,omitempty"`
	// RangesRev is the revision at which the normalization ranges last
	// widened. A range change rescales every stored vector, so clients
	// syncing from an older revision need a full template, not a patch.
	RangesRev int `json:"ranges_rev,omitempty"`
}

// clone copies the entry's metadata (the template pointer is shared; the
// stored template is immutable).
func (e *Entry) clone() *Entry {
	cp := *e
	cp.Hosts = make(map[string]int, len(e.Hosts))
	for h, n := range e.Hosts {
		cp.Hosts[h] = n
	}
	cp.StateRevs = append([]int(nil), e.StateRevs...)
	return &cp
}

// sanitizeRevs repairs a missing or corrupt version vector — an entry
// persisted by an older registry, or a hand-edited file whose StateRevs no
// longer lines up with its states. The safe repair is "everything changed
// at the current revision": clients syncing from any older revision then
// receive one full template, and delta tracking resumes cleanly from
// there. It returns whether a repair was needed.
func (e *Entry) sanitizeRevs() bool {
	ok := len(e.StateRevs) == len(e.Template.States) &&
		e.RangesRev >= 0 && e.RangesRev <= e.Revision
	for _, rev := range e.StateRevs {
		if rev <= 0 || rev > e.Revision {
			ok = false
			break
		}
	}
	if ok {
		return false
	}
	e.StateRevs = make([]int, len(e.Template.States))
	for i := range e.StateRevs {
		e.StateRevs[i] = e.Revision
	}
	e.RangesRev = e.Revision
	return true
}

// Config tunes a Registry.
type Config struct {
	// Dir is the persistence directory; entries survive restarts as one
	// JSON file each under Dir/shard-NN, replaced atomically (temp file +
	// rename). Empty means in-memory only.
	Dir string
	// Shards splits the store into that many independently locked shards,
	// routed by ShardFor; 0 means 1. With a Dir the count is pinned in
	// Dir/shards.json on first open, and reopening with a different count
	// fails rather than re-routing apps away from their stored history.
	Shards int
	// MergeEpsilon is the vector distance under which states from
	// different hosts collapse into one consensus state; 0 uses
	// DefaultMergeEpsilon.
	MergeEpsilon float64
	// Now is the clock, injectable for tests; nil uses time.Now.
	Now func() time.Time
	// OnPut, when non-nil, is invoked after every accepted Put with the
	// new entry and the incremental delta from the previous revision —
	// the streaming control plane's publish hook. It runs with the app's
	// shard lock held so events observe revisions in order; the hook
	// must be fast, must not block, and must not call back into the
	// registry.
	OnPut PutHook
}

// PutHook receives accepted template updates; see Config.OnPut. The entry
// is a private clone, the delta carries only the states this Put changed
// (or the full template for a first Put).
type PutHook func(e *Entry, d *statespace.TemplateDelta)

// Registry is the store, split into shards by sensitive-app key: every
// Put pays an O(states²) merge under its shard's lock, so templates for
// different applications never contend on a lock, never share a merge,
// and persist under separate directories. Safe for concurrent use.
type Registry struct {
	cfg    Config
	shards []*shard
}

// shard is one independently locked part of the store.
type shard struct {
	dir string // persistence directory; "" when in-memory

	mu      sync.RWMutex
	entries map[Key]*Entry
}

// shardMarker is the shard-count pin, one per persistence directory.
const shardMarker = "shards.json"

// Open creates a registry, loading any entries previously persisted under
// cfg.Dir (created if missing). Unreadable entry files fail Open rather
// than being dropped silently.
func Open(cfg Config) (*Registry, error) {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.MergeEpsilon <= 0 {
		cfg.MergeEpsilon = DefaultMergeEpsilon
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Dir != "" {
		if err := pinShardCount(cfg.Dir, cfg.Shards); err != nil {
			return nil, err
		}
	}
	r := &Registry{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	for i := range r.shards {
		s := &shard{entries: make(map[Key]*Entry)}
		if cfg.Dir != "" {
			s.dir = filepath.Join(cfg.Dir, fmt.Sprintf("shard-%02d", i))
			if err := s.load(); err != nil {
				return nil, fmt.Errorf("registry: shard %d: %w", i, err)
			}
		}
		r.shards[i] = s
	}
	return r, nil
}

// load reads every entry persisted in the shard's directory.
func (s *shard) load() error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("registry: create dir: %w", err)
	}
	files, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("registry: read dir: %w", err)
	}
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, f.Name()))
		if err != nil {
			return fmt.Errorf("registry: load %s: %w", f.Name(), err)
		}
		var e Entry
		if err := json.Unmarshal(data, &e); err != nil {
			return fmt.Errorf("registry: parse %s: %w", f.Name(), err)
		}
		if e.Template == nil {
			return fmt.Errorf("registry: %s has no template", f.Name())
		}
		if err := e.Template.Validate(); err != nil {
			return fmt.Errorf("registry: %s: %w", f.Name(), err)
		}
		if e.Hosts == nil {
			e.Hosts = make(map[string]int)
		}
		e.sanitizeRevs()
		s.entries[e.Key] = &e
	}
	return nil
}

// pinShardCount creates or verifies the shard-count marker under dir.
// Routing is a stable hash of the app name, so changing the count would
// send apps to shards that cannot see their history.
func pinShardCount(dir string, n int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("registry: create dir: %w", err)
	}
	type marker struct {
		Shards int `json:"shards"`
	}
	path := filepath.Join(dir, shardMarker)
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		body, err := json.Marshal(marker{Shards: n})
		if err != nil {
			return fmt.Errorf("registry: marshal shard marker: %w", err)
		}
		if err := fsatomic.WriteFile(path, append(body, '\n'), 0o644); err != nil {
			return fmt.Errorf("registry: pin shard count: %w", err)
		}
		return nil
	case err != nil:
		return fmt.Errorf("registry: read shard marker: %w", err)
	}
	var pinned marker
	if err := json.Unmarshal(data, &pinned); err != nil {
		return fmt.Errorf("registry: parse %s: %w", shardMarker, err)
	}
	if pinned.Shards != n {
		return fmt.Errorf("registry: store %s was created with %d shards, reopened with %d; "+
			"shard count is part of the routing function and cannot change",
			dir, pinned.Shards, n)
	}
	return nil
}

// ShardFor returns the shard index app routes to: an FNV-1a hash of the
// app name modulo the shard count. Every template operation for one
// sensitive application lands on one shard.
func (r *Registry) ShardFor(app string) int {
	h := fnv.New32a()
	h.Write([]byte(app))
	return int(h.Sum32() % uint32(len(r.shards)))
}

// Shards reports the shard count.
func (r *Registry) Shards() int { return len(r.shards) }

func (r *Registry) shardOf(app string) *shard { return r.shards[r.ShardFor(app)] }

// Put validates the template, merges it with the stored consensus map for
// its (app, schema) key — Procrustes-aligning the upload onto the stored
// layout — persists the result atomically, and returns the new entry.
// host labels the uploader for the contribution ledger.
func (r *Registry) Put(host string, t *statespace.Template) (*Entry, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if t.SensitiveApp == "" {
		return nil, fmt.Errorf("registry: template has no sensitive app name")
	}
	if len(t.States) == 0 {
		return nil, fmt.Errorf("registry: refusing empty template for %q", t.SensitiveApp)
	}
	if host == "" {
		host = "unknown"
	}
	key := Key{App: t.SensitiveApp, Schema: t.SchemaKey()}

	s := r.shardOf(key.App)
	s.mu.Lock()
	defer s.mu.Unlock()
	var next, prev *Entry
	if cur, ok := s.entries[key]; ok {
		prev = cur
		merged, err := MergeTemplates(cur.Template, t, r.cfg.MergeEpsilon)
		if err != nil {
			return nil, err
		}
		next = cur.clone()
		next.Template = merged
	} else {
		next = &Entry{Key: key, Hosts: make(map[string]int)}
		// Store a private deduped copy so later caller mutations cannot
		// reach the registry's "immutable" template.
		cp := statespace.CloneTemplate(t)
		cp.States = statespace.DedupeStates(cp.States, r.cfg.MergeEpsilon)
		next.Template = cp
	}
	next.Revision++
	next.Hosts[host]++
	next.UpdatedAt = r.cfg.Now()
	trackRevisions(prev, next)

	if err := s.persist(next); err != nil {
		return nil, err
	}
	// The registry is keyed by (app, schema): one entry per deployed
	// workload template, bounded by fleet configuration rather than
	// request volume, and evicting would discard learned state that Put
	// exists to accumulate.
	s.entries[key] = next
	if r.cfg.OnPut != nil {
		since := 0
		if prev != nil {
			since = prev.Revision
		}
		r.cfg.OnPut(next.clone(), entryDelta(next, since))
	}
	return next.clone(), nil
}

// Get returns the entry for app. schema narrows to an exact (app, schema)
// key; when empty, the most recently updated entry for the app wins.
func (r *Registry) Get(app, schema string) (*Entry, bool) {
	s := r.shardOf(app)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.lookupLocked(app, schema)
	if e == nil {
		return nil, false
	}
	return e.clone(), true
}

// Entries returns all entries, ordered by key for deterministic listings.
func (r *Registry) Entries() []*Entry {
	var out []*Entry
	for _, s := range r.shards {
		s.mu.RLock()
		for _, e := range s.entries {
			out = append(out, e.clone())
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// Len reports the number of stored entries.
func (r *Registry) Len() int {
	n := 0
	for _, s := range r.shards {
		s.mu.RLock()
		n += len(s.entries)
		s.mu.RUnlock()
	}
	return n
}

// persist writes the entry to its file via temp-file + rename so readers
// (and a crash) never observe a torn write. No-op when in-memory.
func (s *shard) persist(e *Entry) error {
	if s.dir == "" {
		return nil
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("registry: marshal entry %s: %w", e.Key, err)
	}
	data = append(data, '\n')
	path := filepath.Join(s.dir, entryFilename(e.Key))
	if err := fsatomic.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("registry: persist entry %s: %w", e.Key, err)
	}
	return nil
}

// entryFilename derives a stable, filesystem-safe name for a key: a
// sanitized human-readable prefix plus an FNV hash that keeps distinct
// keys from colliding after sanitization.
func entryFilename(k Key) string {
	s := k.String()
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '.', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	name := b.String()
	if len(name) > 64 {
		name = name[:64]
	}
	h := fnv.New32a()
	h.Write([]byte(s))
	return fmt.Sprintf("%s-%08x.json", name, h.Sum32())
}
