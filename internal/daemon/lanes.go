// Package daemon is stayawayd's control loop (Run) and its
// live-operations layer: the declarative lane configuration (lanes.json)
// with two-phase validate-then-commit reload, the mtime/size file
// watcher that triggers it without fsnotify, the thread-safe status
// board the loop publishes to, and the HTTP admin surface (/healthz,
// /readyz, /metrics, /v1/events SSE, /v1/reload) that serves it.
//
// The host runtime is single-threaded and owned by the loop's goroutine:
// everything else here either runs on that goroutine (reload commits) or
// reads immutable snapshots the loop published (the admin handlers).
package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path"
	"sort"
)

// LanesVersion is the lanes.json schema version this daemon understands.
const LanesVersion = 1

// LaneDef declares one protected application in lanes.json. Fields
// mirror the repeatable -sensitive-cgroup/-qos-file/-app flag triple.
type LaneDef struct {
	// App is the fleet-wide application name; empty defaults to the base
	// name of SensitiveCgroup (like the -app flag default).
	App string `json:"app,omitempty"`
	// SensitiveCgroup is the application's cgroup, relative to the
	// daemon's -cgroup-root.
	SensitiveCgroup string `json:"sensitive_cgroup"`
	// QoSFile is the report file the application rewrites each period
	// ("<value> <threshold>").
	QoSFile string `json:"qos_file"`
}

// Name returns the lane's effective application name.
func (d LaneDef) Name() string {
	if d.App != "" {
		return d.App
	}
	return path.Base(d.SensitiveCgroup)
}

// LanesFile is the root of lanes.json.
type LanesFile struct {
	// Version must be LanesVersion.
	Version int `json:"version"`
	// Lanes declares the complete desired lane set: a reload diffs it
	// against the running set, so omitting a lane removes it.
	Lanes []LaneDef `json:"lanes"`
}

// ParseLanes decodes a lanes.json document strictly: unknown fields are
// an error (a typoed key must not silently become "use the default"),
// and trailing garbage after the document is rejected.
func ParseLanes(data []byte) (*LanesFile, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var lf LanesFile
	if err := dec.Decode(&lf); err != nil {
		return nil, fmt.Errorf("daemon: parse lanes file: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err == nil || len(extra) > 0 {
		return nil, fmt.Errorf("daemon: lanes file has trailing data after the document")
	}
	return &lf, nil
}

// LoadLanes reads and strictly parses a lanes.json file.
func LoadLanes(path string) (*LanesFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("daemon: read lanes file: %w", err)
	}
	return ParseLanes(data)
}

// Validate is the static half of the two-phase reload: everything that
// can be rejected without touching the runtime is rejected here, all
// problems at once, so one edit fixes a bad file. batch is the daemon's
// shared batch cgroup set (lanes.json does not manage it; a sensitive
// cgroup colliding with it would throttle the protected application).
func (lf *LanesFile) Validate(batch []string) error {
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	if lf.Version != LanesVersion {
		fail("version %d unsupported (want %d)", lf.Version, LanesVersion)
	}
	if len(lf.Lanes) == 0 {
		fail("no lanes declared: the diff would remove every lane and leave nothing protected")
	}
	batchSet := make(map[string]bool, len(batch))
	for _, cg := range batch {
		batchSet[cg] = true
	}
	apps := map[string]bool{}
	cgroups := map[string]bool{}
	qos := map[string]string{}
	for i, d := range lf.Lanes {
		where := fmt.Sprintf("lane %d (%s)", i, d.Name())
		if d.SensitiveCgroup == "" {
			where = fmt.Sprintf("lane %d", i)
			fail("%s: sensitive_cgroup is required", where)
		}
		if d.QoSFile == "" {
			fail("%s: qos_file is required (the QoS report is the violation signal)", where)
		}
		if app := d.Name(); app != "" {
			if apps[app] {
				fail("%s: application name %q declared twice", where, app)
			}
			apps[app] = true
		}
		if cg := d.SensitiveCgroup; cg != "" {
			if cgroups[cg] {
				fail("%s: cgroup %q declared twice", where, cg)
			}
			cgroups[cg] = true
			if batchSet[cg] {
				fail("%s: cgroup %q is a batch cgroup; throttling the sensitive application defeats the purpose", where, cg)
			}
		}
		if f := d.QoSFile; f != "" {
			if prev, ok := qos[f]; ok {
				fail("%s: qos_file %q already used by lane %q", where, f, prev)
			}
			qos[f] = d.Name()
		}
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return fmt.Errorf("daemon: invalid lanes file:\n  - %s", joinLines(errs))
	}
	return nil
}

func joinLines(errs []string) string {
	out := errs[0]
	for _, e := range errs[1:] {
		out += "\n  - " + e
	}
	return out
}

// LaneDiff is the outcome of comparing a validated lanes file against
// the running set, keyed by application name. Apply order matters and is
// adds, changes, removes: the runtime never passes through a state with
// fewer protected applications than both the old and new configs agree
// on, and a mid-apply failure leaves extra protection, not less.
type LaneDiff struct {
	Add    []LaneDef
	Change []LaneDef
	Remove []string
}

// Empty reports whether the diff changes nothing.
func (d LaneDiff) Empty() bool {
	return len(d.Add) == 0 && len(d.Change) == 0 && len(d.Remove) == 0
}

// String renders a compact summary for the daemon log.
func (d LaneDiff) String() string {
	return fmt.Sprintf("+%d ~%d -%d", len(d.Add), len(d.Change), len(d.Remove))
}

// DiffLanes compares the desired lane set against the current one.
// Order within each slice follows the desired file (adds, changes) or
// the current set (removes), so application is deterministic.
func DiffLanes(current, desired []LaneDef) LaneDiff {
	cur := make(map[string]LaneDef, len(current))
	for _, d := range current {
		cur[d.Name()] = d
	}
	var out LaneDiff
	seen := make(map[string]bool, len(desired))
	for _, d := range desired {
		name := d.Name()
		seen[name] = true
		old, ok := cur[name]
		switch {
		case !ok:
			out.Add = append(out.Add, d)
		case old != d:
			out.Change = append(out.Change, d)
		}
	}
	for _, d := range current {
		if !seen[d.Name()] {
			out.Remove = append(out.Remove, d.Name())
		}
	}
	return out
}
