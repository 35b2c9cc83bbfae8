package daemon

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/cgroup"
	"repro/internal/core"
	"repro/internal/procenv"
	"repro/internal/resilience"
)

// Reloader is the two-phase hot-reload pipeline for the lanes file.
//
// Phase one, Queue, may run on any goroutine (the SIGHUP handler, the
// watcher check, the POST /v1/reload handler): it loads and strictly
// parses the file and runs every static validation. A bad file is
// rejected here — recorded with its reason, running set untouched
// (rollback-by-default) — and a good one is stashed as the single
// pending config (a newer Queue replaces an unconsumed older one; the
// file is the source of truth, not the queue).
//
// Phase two runs on the control-loop goroutine at a period boundary:
// TakePending hands over the validated config, the loop diffs and
// applies it against the live runtime, and Commit records the outcome.
type Reloader struct {
	path  string
	batch []string

	mu      sync.Mutex
	current []LaneDef
	pending *LanesFile
	// generation counts accepted Queues; applied is the generation the
	// loop last committed. applied < generation means a reload is in
	// flight (or was superseded before the loop took it).
	generation int
	applied    int
	lastErr    string
	lastErrAt  time.Time
	appliedAt  time.Time
}

// ReloadStatus is the reloader's observable state, served by /readyz.
type ReloadStatus struct {
	// Generation counts accepted (validated) reloads; Applied is the
	// generation the control loop last committed. Pending means a
	// validated config is waiting for the next period boundary.
	Generation int  `json:"generation"`
	Applied    int  `json:"applied"`
	Pending    bool `json:"pending"`
	// LastError is the reason the most recent rejected config was
	// refused, with its timestamp; empty if the last Queue was accepted.
	LastError   string    `json:"last_error,omitempty"`
	LastErrorAt time.Time `json:"last_error_at"`
	// AppliedAt is when the last commit happened.
	AppliedAt time.Time `json:"applied_at"`
	// Lanes is the committed lane set.
	Lanes []LaneDef `json:"lanes,omitempty"`
}

// NewReloader tracks reloads of the lanes file at path. current is the
// lane set the daemon started with; batch is the shared batch cgroup
// set used for validation.
func NewReloader(path string, current []LaneDef, batch []string) *Reloader {
	return &Reloader{
		path:    path,
		batch:   append([]string(nil), batch...),
		current: append([]LaneDef(nil), current...),
	}
}

// Queue validates the lanes file and stages it for the next period
// boundary. The returned error is the logged rejection reason; on error
// nothing is staged and any previously staged config stays staged (it
// already passed validation — a bad edit must not cancel a good one).
func (r *Reloader) Queue() error {
	lf, err := LoadLanes(r.path)
	if err == nil {
		err = lf.Validate(r.batch)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.lastErr = err.Error()
		r.lastErrAt = time.Now()
		return err
	}
	r.lastErr = ""
	r.pending = lf
	r.generation++
	return nil
}

// TakePending hands the staged config to the control loop and clears
// the stage. ok is false when nothing is pending.
func (r *Reloader) TakePending() (lanes []LaneDef, gen int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pending == nil {
		return nil, 0, false
	}
	lanes = r.pending.Lanes
	r.pending = nil
	return lanes, r.generation, true
}

// Commit records the lane set the loop actually applied for generation
// gen. The applied set can differ from the desired one when individual
// lane operations failed (the loop keeps the survivors); committing the
// truth keeps later diffs correct.
func (r *Reloader) Commit(gen int, lanes []LaneDef) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.current = append([]LaneDef(nil), lanes...)
	if gen > r.applied {
		r.applied = gen
	}
	r.appliedAt = time.Now()
}

// Current returns the committed lane set.
func (r *Reloader) Current() []LaneDef {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]LaneDef(nil), r.current...)
}

// Status snapshots the reloader for the admin surface.
func (r *Reloader) Status() ReloadStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReloadStatus{
		Generation:  r.generation,
		Applied:     r.applied,
		Pending:     r.pending != nil,
		LastError:   r.lastErr,
		LastErrorAt: r.lastErrAt,
		AppliedAt:   r.appliedAt,
		Lanes:       append([]LaneDef(nil), r.current...),
	}
}

// Diff computes the lane diff from the committed set to desired.
func (r *Reloader) Diff(desired []LaneDef) LaneDiff {
	r.mu.Lock()
	defer r.mu.Unlock()
	return DiffLanes(r.current, desired)
}

// queueReload is phase one of a hot reload, shared by SIGHUP, the
// watcher and POST /v1/reload: validate and stage, or reject with the
// running set untouched.
func (l *loop) queueReload(source string) error {
	err := l.reloader.Queue()
	if err != nil {
		fmt.Fprintf(os.Stderr, "stayawayd: reload (%s) rejected, keeping running config: %v\n", source, err)
		if l.metrics != nil {
			l.metrics.Counter(metricReloads, helpReloads, "result", "rejected").Add(1)
		}
		if l.hub != nil {
			l.hub.Publish(ReloadEvent(ReloadOutcome{Rejected: err.Error()}))
		}
		return err
	}
	fmt.Printf("stayawayd: reload (%s) validated, applying at next period boundary\n", source)
	return nil
}

// applyReload is phase two of a hot reload, run at a period boundary:
// take the staged config, diff it against what is running, apply adds
// before changes before removes — the shared pool is never left less
// protected than both configs agree on — and commit the set that is
// actually running afterwards, so a failed add surfaces as drift in
// ReloadStatus instead of being papered over.
func (l *loop) applyReload() {
	if l.reloader == nil {
		return
	}
	desired, gen, ok := l.reloader.TakePending()
	if !ok {
		return
	}
	diff := l.reloader.Diff(desired)
	if diff.Empty() {
		l.reloader.Commit(gen, desired)
		return
	}
	fmt.Printf("stayawayd: reload gen %d: applying %s\n", gen, diff)
	byApp := make(map[string]*lane, len(l.lanes))
	for _, ln := range l.lanes {
		byApp[ln.app] = ln
	}
	publishLane := func(c LaneChange) {
		if l.hub != nil {
			l.hub.Publish(LaneEvent(c))
		}
	}
	for _, d := range diff.Add {
		ln, err := l.addLive(d)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stayawayd: reload: add %s: %v\n", d.Name(), err)
			publishLane(LaneChange{Op: "add", App: d.Name(), Error: err.Error()})
			continue
		}
		byApp[ln.app] = ln
		fmt.Printf("stayawayd: reload: added lane %s (cgroup %s)\n", ln.app, d.SensitiveCgroup)
		publishLane(LaneChange{Op: "add", App: ln.app})
	}
	for _, d := range diff.Change {
		ln := byApp[d.Name()]
		if ln == nil {
			continue
		}
		carried, err := l.changeLane(ln, d)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stayawayd: reload: change %s rejected, lane keeps its old config: %v\n", d.Name(), err)
			publishLane(LaneChange{Op: "change", App: d.Name(), Error: err.Error()})
			continue
		}
		fmt.Printf("stayawayd: reload: reconfigured lane %s (state carried: %v)\n", ln.app, carried)
		publishLane(LaneChange{Op: "change", App: ln.app, Carried: carried})
	}
	for _, name := range diff.Remove {
		ln := byApp[name]
		if ln == nil {
			continue
		}
		errStr := ""
		if err := l.removeLane(ln); err != nil {
			fmt.Fprintf(os.Stderr, "stayawayd: reload: remove %s: %v\n", name, err)
			errStr = err.Error()
		} else {
			fmt.Printf("stayawayd: reload: removed lane %s\n", name)
		}
		delete(byApp, name)
		publishLane(LaneChange{Op: "remove", App: name, Error: errStr})
	}
	applied := make([]LaneDef, 0, len(l.lanes))
	for _, ln := range l.lanes {
		applied = append(applied, ln.def)
	}
	l.reloader.Commit(gen, applied)
	if l.metrics != nil {
		l.metrics.Counter(metricReloads, helpReloads, "result", "applied").Add(1)
	}
	if l.hub != nil {
		l.hub.Publish(ReloadEvent(ReloadOutcome{Generation: gen, Diff: diff.String()}))
	}
}

// addLive registers a new lane's telemetry group, adds the lane and
// resumes its learning if it ran here before.
func (l *loop) addLive(d LaneDef) (*lane, error) {
	group := l.cfg.Lanes.Group(d)
	if err := l.cfg.Groups.AddGroup(cgroup.Group{Name: group, Path: d.SensitiveCgroup}); err != nil {
		return nil, err
	}
	ln, err := l.addLane(d)
	if err != nil {
		l.cfg.Groups.RemoveGroup(group)
		return nil, err
	}
	ln.restore()
	return ln, nil
}

// changeLane swaps ln's lane for one built from d, carrying its learned
// state when the schema allows. On error the old lane runs on.
func (l *loop) changeLane(ln *lane, d LaneDef) (bool, error) {
	group, old := l.cfg.Lanes.Group(d), l.cfg.Lanes.Group(ln.def)
	if group != old {
		// The sensitive cgroup moved: register the new telemetry group
		// first so the replacement lane's first collection sees its real
		// source.
		if err := l.cfg.Groups.AddGroup(cgroup.Group{Name: group, Path: d.SensitiveCgroup}); err != nil {
			return false, err
		}
	}
	sig, err := l.cfg.Env.Signals(group, procenv.FileQoS{Path: d.QoSFile})
	if err == nil {
		var rt *core.Lane
		var carried bool
		rt, carried, err = l.host.ReconfigureLane(l.laneConfig(group, d.Name()), sig)
		if err == nil {
			if group != old {
				l.cfg.Groups.RemoveGroup(old)
			}
			ln.sig, ln.rt, ln.def = sig, rt, d
			// The replacement lane's event ring restarts at sequence 0.
			ln.seq, ln.hubSeq = 0, 0
			return carried, nil
		}
	}
	if group != old {
		l.cfg.Groups.RemoveGroup(group) // roll back; the old lane runs on
	}
	return false, err
}

// removeLane drains ln out of the host runtime, flushing its checkpoint
// and sharing its map first.
func (l *loop) removeLane(ln *lane) error {
	rt, err := l.host.RemoveLane(ln.app)
	// The lane is out of the arbiter's merge even on error (removal is
	// fail-safe); what follows is best-effort bookkeeping.
	if rt != nil && rt.Space().Len() > 0 {
		if ln.ckPath != "" {
			if ckErr := resilience.SaveCheckpoint(ln.ckPath, rt.Checkpoint()); ckErr != nil {
				fmt.Fprintf(os.Stderr, "stayawayd: %s: departing checkpoint: %v\n", ln.app, ckErr)
			}
		}
		if ln.syncer != nil {
			// Share the freshest map before the lane disappears.
			if pushErr := ln.syncer.PushTemplate(rt.ExportTemplate(ln.app)); pushErr != nil {
				fmt.Fprintf(os.Stderr, "stayawayd: %s: departing push: %v\n", ln.app, pushErr)
			}
		}
	}
	l.cfg.Groups.RemoveGroup(l.cfg.Lanes.Group(ln.def))
	for i, cur := range l.lanes {
		if cur == ln {
			l.lanes = append(l.lanes[:i], l.lanes[i+1:]...)
			break
		}
	}
	return err
}
