package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cgroup"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/procenv"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/statespace"
	"repro/internal/stream"
)

// The loop is driven by hand: Ticks is unbuffered, so once the loop has
// taken tick n+1, period n and all its bookkeeping are complete.

const (
	// memberPID is every fixture cgroup's member process: above any
	// pid_max, so it names no process.
	memberPID = 1 << 23
	// violating and healthy are QoS reports ("<value> <threshold>").
	violating = "0.5 0.9\n"
	healthy   = "0.9 0.5\n"
)

var fixtureBatch = []string{"s/b1", "s/b2"}

// fixture is an in-memory cgroup tree — one sensitive cgroup s/<app> per
// lane plus the batch pool — with a QoS report file per lane, and the
// loop Config stayawayd would build over it.
type fixture struct {
	fs    cgroup.Cgroupfs // the tree as the daemon sees it
	tree  *cgroup.FakeFS
	dir   string
	ticks chan time.Time
	cfg   Config
}

// newFixture builds the tree for set (sensitive cgroups and QoS files
// are named after each lane's app) with every lane reporting qos.
func newFixture(t *testing.T, legacy bool, qos string, apps ...string) *fixture {
	t.Helper()
	f := &fixture{tree: cgroup.NewFakeFS(), dir: t.TempDir(), ticks: make(chan time.Time)}
	f.fs = f.tree
	set := LaneSet{Legacy: legacy}
	for _, app := range apps {
		d := LaneDef{App: app, SensitiveCgroup: "s/" + app, QoSFile: filepath.Join(f.dir, app+".qos")}
		f.tree.AddCgroup(d.SensitiveCgroup, memberPID)
		f.report(t, app, qos)
		set.Lanes = append(set.Lanes, d)
	}
	for _, cg := range fixtureBatch {
		f.tree.AddCgroup(cg, memberPID)
	}
	f.cfg = Config{
		BatchIDs: fixtureBatch,
		Watching: "fixture",
		Lanes:    set,
		Ranges:   metrics.DefaultRanges(4, 4096, 200, 1000),
		Seed:     42,
		Ticks:    f.ticks,
		Period:   time.Millisecond,
	}
	return f
}

// report rewrites the app's QoS report.
func (f *fixture) report(t *testing.T, app, qos string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(f.dir, app+".qos"), []byte(qos), 0o644); err != nil {
		t.Fatal(err)
	}
}

// wire builds the collector, host environment and actuator over f.fs
// (set f.fs first to inject faults). sample, when non-nil, wraps the
// collector the environment samples through.
func (f *fixture) wire(t *testing.T, sample func(procenv.Sampler) procenv.Sampler) {
	t.Helper()
	groups := make([]cgroup.Group, 0, len(f.cfg.Lanes.Lanes)+len(fixtureBatch))
	for _, d := range f.cfg.Lanes.Lanes {
		groups = append(groups, cgroup.Group{Name: f.cfg.Lanes.Group(d), Path: d.SensitiveCgroup})
	}
	for _, cg := range fixtureBatch {
		groups = append(groups, cgroup.Group{Name: cg, Path: cg})
	}
	col, err := cgroup.NewCollector(f.fs, groups)
	if err != nil {
		t.Fatal(err)
	}
	var sampler procenv.Sampler = col
	if sample != nil {
		sampler = sample(col)
	}
	if f.cfg.Env, err = procenv.NewHostEnv(sampler, fixtureBatch); err != nil {
		t.Fatal(err)
	}
	f.cfg.Groups = col
	act, err := cgroup.NewActuator(f.fs, cgroup.ActuatorConfig{
		MaxCPU: 4,
		// A control file that stays unwritable degrades to signals; here
		// signalling fails too, so the actuation error surfaces.
		Kill:  func(int, syscall.Signal) error { return syscall.EPERM },
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.cfg.Actuator = act
	f.cfg.Release = func() error { return act.Resume(fixtureBatch) }
}

// running is a loop started on its own goroutine.
type running struct {
	l     *loop
	ticks chan time.Time
	once  sync.Once
	done  chan struct{}
	err   error // Run's result, set before done closes
}

// start wires the fixture if the test has not, builds the loop and runs
// it until stop.
func (f *fixture) start(t *testing.T, ctx context.Context) *running {
	t.Helper()
	if f.cfg.Env == nil {
		f.wire(t, nil)
	}
	l, err := newLoop(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &running{l: l, ticks: f.ticks, done: make(chan struct{})}
	go func() {
		r.err = l.run(ctx)
		close(r.done)
	}()
	t.Cleanup(func() { r.stop() })
	return r
}

// tick delivers n ticks.
func (r *running) tick(n int) {
	for i := 0; i < n; i++ {
		r.ticks <- time.Time{}
	}
}

// wait returns Run's error once the loop has returned.
func (r *running) wait() error {
	<-r.done
	return r.err
}

// stop closes the tick channel and waits for Run.
func (r *running) stop() error {
	r.once.Do(func() { close(r.ticks) })
	return r.wait()
}

func (f *fixture) freeze(t *testing.T, cg string) string {
	t.Helper()
	data, err := f.tree.ReadFile(cg + "/cgroup.freeze")
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(data))
}

// froze reports whether the daemon ever froze cg.
func (f *fixture) froze(cg string) bool {
	for _, w := range f.tree.Writes() {
		if w.Name == cg+"/cgroup.freeze" && strings.TrimSpace(w.Data) == "1" {
			return true
		}
	}
	return false
}

// waitFor polls cond — for events that arrive from another goroutine,
// like a registry stream — until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRunValidation(t *testing.T) {
	f := newFixture(t, true, healthy, "vlc")
	f.wire(t, nil)
	for name, mutate := range map[string]func(*Config){
		"no environment": func(c *Config) { c.Env = nil },
		"no actuator":    func(c *Config) { c.Actuator = nil },
		"no release":     func(c *Config) { c.Release = nil },
		"no lanes":       func(c *Config) { c.Lanes = LaneSet{} },
		"reload without a collector": func(c *Config) {
			c.LanesFile, c.Groups = "lanes.json", nil
		},
	} {
		cfg := f.cfg
		mutate(&cfg)
		if err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: Run accepted the config", name)
		}
	}
}

// Run is paced by its tick channel alone: without one it refuses to
// start, with one it runs until the channel closes.
func TestRunNeedsTicks(t *testing.T) {
	f := newFixture(t, true, healthy, "vlc")
	f.wire(t, nil)
	cfg := f.cfg
	cfg.Ticks = nil
	if err := Run(context.Background(), cfg); err == nil {
		t.Error("Run accepted a nil tick channel")
	}
	r := f.start(t, context.Background())
	if err := r.stop(); err != nil {
		t.Errorf("Run over a closed tick channel = %v, want a clean exit", err)
	}
}

// With -sync-every and -checkpoint-every unset (≤ 0), the loop pushes
// and checkpoints at the flag default, every 30 periods.
func TestRunCadenceDefaults(t *testing.T) {
	ts, reg, _ := registryFixture(t)
	f := newFixture(t, false, violating, "vlc")
	f.useFleet(t, ts.URL, "host-a", nil)
	f.cfg.StateDir = filepath.Join(f.dir, "state")
	path := filepath.Join(f.cfg.StateDir, "checkpoint-vlc.json")
	r := f.start(t, context.Background())
	r.tick(30) // periods 1–29 done
	if e, ok := reg.Get("vlc", ""); ok {
		t.Fatalf("pushed before period 30: registry holds revision %d", e.Revision)
	}
	if ck := loadCheckpoint(t, path); ck != nil {
		t.Fatalf("checkpoint at period %d, before period 30", ck.Periods)
	}
	r.tick(1) // period 30 done
	if e, ok := reg.Get("vlc", ""); !ok || e.Revision != 1 {
		t.Errorf("registry entry after period 30 = %+v (found %v), want revision 1", e, ok)
	}
	if ck := loadCheckpoint(t, path); ck == nil || ck.Periods != 30 {
		t.Errorf("checkpoint after period 30 = %+v, want one at period 30", ck)
	}
}

// Each tick runs exactly one period, and each period emits one event.
func TestRunOnePeriodPerTick(t *testing.T) {
	f := newFixture(t, true, violating, "vlc")
	r := f.start(t, context.Background())
	r.tick(10)
	if err := r.stop(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ln := r.l.lanes[0]
	if got := r.l.board.Snapshot().Periods; got != 10 {
		t.Errorf("board periods = %d, want 10", got)
	}
	if ln.periods != 10 {
		t.Errorf("drained %d events, want 10", ln.periods)
	}
	if got := ln.rt.Report().Periods; got != 10 {
		t.Errorf("report periods = %d, want 10", got)
	}
}

// Each lane's report drain and /v1/events feed see each of the lane's own
// periods exactly once, in order — also when a reload removes the first
// lane mid-run and the second takes its place in the host's lane order.
func TestReloadRemovingFirstLaneDrainsEachPeriodOnce(t *testing.T) {
	f := newFixture(t, false, violating, "vlc", "kv")
	f.cfg.LanesFile = filepath.Join(f.dir, "lanes.json")
	f.cfg.AdminAddr = "127.0.0.1:0"
	f.cfg.Verbose = true
	stdout := capture(t, &os.Stdout)
	captureStderr(t)
	r := f.start(t, context.Background())
	vlc := r.l.lanes[0].rt
	sub, _ := r.l.hub.Subscribe("")
	fed := make(chan map[string][]int)
	go func() {
		got := map[string][]int{}
		for sev := range sub.C {
			if sev.Type != TypePeriod {
				continue
			}
			var ev core.Event
			if err := json.Unmarshal(sev.Data, &ev); err != nil {
				t.Error(err)
			}
			got[ev.App] = append(got[ev.App], ev.Period)
		}
		fed <- got
	}()
	r.tick(5)
	r.reload(t, f.cfg.LanesFile, f.cfg.Lanes.Lanes[1])
	r.tick(7)
	if err := r.stop(); err != nil {
		t.Fatal(err)
	}
	drained := map[string][]int{}
	for _, line := range strings.Split(stdout(), "\n") {
		app, ev, ok := strings.Cut(strings.TrimPrefix(line, "["), "] ")
		var p int
		if n, _ := fmt.Sscanf(ev, "p=%d ", &p); ok && n == 1 {
			drained[app] = append(drained[app], p)
		}
	}
	// kv ran every period; vlc those before the reload, which the loop
	// applies at the start of the fifth or the sixth.
	want := map[string]int{"vlc": vlc.Periods(), "kv": 12}
	if want["vlc"] < 4 {
		t.Fatalf("vlc ran %d periods before its removal, want at least 4", want["vlc"])
	}
	for name, got := range map[string]map[string][]int{"drain": drained, "feed": <-fed} {
		for app, n := range want {
			if len(got[app]) != n {
				t.Errorf("%s saw %d %s periods, want %d: %v", name, len(got[app]), app, n, got[app])
				continue
			}
			for i, p := range got[app] {
				if p != i {
					t.Errorf("%s saw %s periods %v, want 0..%d once each", name, app, got[app], n-1)
					break
				}
			}
		}
	}
	if ln := r.l.lanes[0]; len(r.l.lanes) != 1 || ln.app != "kv" || ln.periods != 12 {
		t.Errorf("lanes after the reload: %d, first %s with %d periods; want kv alone with 12", len(r.l.lanes), ln.app, ln.periods)
	}
}

// Cancelling the context stops a loop that is waiting for its next tick.
func TestRunStopsOnContextCancel(t *testing.T) {
	f := newFixture(t, true, healthy, "vlc")
	ctx, cancel := context.WithCancel(context.Background())
	r := f.start(t, ctx)
	cancel()
	select {
	case <-r.done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return on cancellation")
	}
	if r.err != nil {
		t.Errorf("Run = %v after cancellation, want a clean exit", r.err)
	}
	if got := r.l.board.Snapshot(); got.Periods != 0 || got.Ready {
		t.Errorf("status after cancel = %d periods, ready %v; want none, not ready", got.Periods, got.Ready)
	}
}

// Whatever ends the loop, nothing is left frozen once Run returns.
func TestRunThawsBeforeReturning(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(r *running, cancel context.CancelFunc) error
	}{
		{"context-cancel", func(r *running, cancel context.CancelFunc) error {
			cancel()
			return r.wait()
		}},
		{"tick-close", func(r *running, _ context.CancelFunc) error { return r.stop() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, true, violating, "vlc")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := f.start(t, ctx)
			r.tick(6)
			if err := tc.stop(r, cancel); err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, cg := range fixtureBatch {
				if !f.froze(cg) {
					t.Fatalf("%s never frozen: the violating lane did not throttle", cg)
				}
				if got := f.freeze(t, cg); got != "0" {
					t.Errorf("%s cgroup.freeze = %q after Run returned, want thawed", cg, got)
				}
			}
			if got := r.l.board.Snapshot(); got.Periods < 5 || got.Ready {
				t.Errorf("status after exit = %d periods, ready %v; want ≥5 periods, not ready", got.Periods, got.Ready)
			}
		})
	}
}

// panicSampler panics on its n-th Sample.
type panicSampler struct {
	procenv.Sampler
	n int
}

func (p *panicSampler) Sample() []metrics.Sample {
	if p.n--; p.n == 0 {
		panic("injected collector fault")
	}
	return p.Sampler.Sample()
}

func TestRunAbsorbsPeriodPanic(t *testing.T) {
	f := newFixture(t, true, violating, "vlc")
	f.cfg.StateDir = filepath.Join(f.dir, "state")
	f.cfg.CheckpointEvery = 1000 // only the final checkpoint could fire
	f.wire(t, func(s procenv.Sampler) procenv.Sampler { return &panicSampler{Sampler: s, n: 3} })
	r := f.start(t, context.Background())
	r.tick(3)
	err := r.wait()
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("Run = %v, want the absorbed panic", err)
	}
	for _, cg := range fixtureBatch {
		if !f.froze(cg) {
			t.Fatalf("%s never frozen before the panic", cg)
		}
		if got := f.freeze(t, cg); got != "0" {
			t.Errorf("%s cgroup.freeze = %q after the panic exit, want thawed", cg, got)
		}
	}
	// No final checkpoint after a panic: mid-period state is untrusted.
	if _, err := os.Stat(filepath.Join(f.cfg.StateDir, "checkpoint.json")); !os.IsNotExist(err) {
		t.Errorf("checkpoint written after a panic (stat err %v)", err)
	}
	// The release cleared the ledger too: a restart has nothing to replay.
	ledger, err := resilience.OpenLedger(filepath.Join(f.cfg.StateDir, "ledger.json"))
	if err != nil {
		t.Fatal(err)
	}
	if out := ledger.Outstanding(); len(out) != 0 {
		t.Errorf("ledger still lists %v after the panic exit", out)
	}
}

// A period that fails (here: the freeze cannot be written) is logged and
// the loop goes on.
func TestRunContinuesAfterPeriodError(t *testing.T) {
	f := newFixture(t, true, violating, "vlc")
	faulty := chaos.NewFS(f.tree, chaos.FSConfig{})
	// Both batch cgroups, three attempts each: the whole first pause.
	faulty.FailWrites("cgroup.freeze", 6, syscall.EIO)
	f.fs = faulty
	r := f.start(t, context.Background())
	r.tick(5)
	if err := r.stop(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := r.l.board.Snapshot().Periods; got != 4 {
		t.Errorf("completed periods = %d, want 4 (the failed one does not count)", got)
	}
	if _, _, _, writeErrs, _ := faulty.Stats(); writeErrs != 6 {
		t.Errorf("%d freeze writes failed, want the scripted 6", writeErrs)
	}
	if got := f.freeze(t, "s/b1"); got != "0" {
		t.Errorf("s/b1 cgroup.freeze = %q after exit", got)
	}
}

func loadCheckpoint(t *testing.T, path string) *resilience.Checkpoint {
	t.Helper()
	ck, err := resilience.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

func TestRunCheckpointCadence(t *testing.T) {
	f := newFixture(t, true, violating, "vlc")
	f.cfg.StateDir = filepath.Join(f.dir, "state")
	f.cfg.CheckpointEvery = 5
	path := filepath.Join(f.cfg.StateDir, "checkpoint.json")
	r := f.start(t, context.Background())
	r.tick(4) // periods 1–3 done
	if ck := loadCheckpoint(t, path); ck != nil {
		t.Fatalf("checkpoint at period %d, before the first cadence point", ck.Periods)
	}
	r.tick(2) // periods 4–5 done
	if ck := loadCheckpoint(t, path); ck == nil || ck.Periods != 5 {
		t.Fatalf("checkpoint after period 5 = %+v, want one at period 5", ck)
	}
	r.tick(5) // periods 6–10 done
	if ck := loadCheckpoint(t, path); ck == nil || ck.Periods != 10 {
		t.Fatalf("checkpoint after period 10 = %+v, want one at period 10", ck)
	}
	r.tick(1)
	if err := r.stop(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ck := loadCheckpoint(t, path); ck == nil || ck.Periods != 12 {
		t.Fatalf("final checkpoint = %+v, want one at period 12", ck)
	}
}

// A restarted daemon resumes the learned map and β from the checkpoint.
func TestRunCheckpointRoundTrip(t *testing.T) {
	stateDir := filepath.Join(t.TempDir(), "state")
	first := newFixture(t, true, violating, "vlc")
	first.cfg.StateDir = stateDir
	r := first.start(t, context.Background())
	r.tick(8)
	if err := r.stop(); err != nil {
		t.Fatal(err)
	}
	learned := r.l.lanes[0].rt
	if !learned.Space().HasViolations() {
		t.Fatal("setup: the first run learned no violation state")
	}

	second := newFixture(t, true, healthy, "vlc")
	second.cfg.StateDir = stateDir
	second.wire(t, nil)
	l, err := newLoop(second.cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored := l.lanes[0].rt
	if got, want := restored.Space().Len(), learned.Space().Len(); got != want || !restored.Space().HasViolations() {
		t.Errorf("restored map: %d states (violations %v), want %d with violations",
			got, restored.Space().HasViolations(), want)
	}
	if restored.Beta() != learned.Beta() {
		t.Errorf("restored β = %v, want %v", restored.Beta(), learned.Beta())
	}
	if rep := restored.Report(); rep.Periods != 0 {
		t.Errorf("restored lane has run %d periods before its first tick", rep.Periods)
	}
}

// registryFixture is an in-process fleet registry with a push stream.
func registryFixture(t *testing.T) (*httptest.Server, *registry.Registry, *stream.Hub) {
	t.Helper()
	hub := stream.NewHub(stream.HubConfig{Epoch: 1})
	t.Cleanup(hub.Close)
	reg, err := registry.Open(registry.Config{OnPut: fleet.PublishHook(hub)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fleet.NewServer(fleet.ServerConfig{Registry: reg, Hub: hub, StreamHeartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, reg, hub
}

// gatedTransport fails every request while down: a registry outage.
type gatedTransport struct {
	mu   sync.Mutex
	down bool
}

func (g *gatedTransport) setDown(down bool) {
	g.mu.Lock()
	g.down = down
	g.mu.Unlock()
}

func (g *gatedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	g.mu.Lock()
	down := g.down
	g.mu.Unlock()
	if down {
		return nil, errors.New("registry unreachable (simulated outage)")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// useFleet points the daemon at the registry at url as host, through rt
// (nil: the default transport).
func (f *fixture) useFleet(t *testing.T, url, host string, rt http.RoundTripper) {
	t.Helper()
	c, err := fleet.NewClient(fleet.ClientConfig{
		BaseURL:   url,
		Transport: rt,
		Retry: fleet.RetryConfig{
			Attempts: 2,
			Sleep:    func(context.Context, time.Duration) error { return nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.cfg.Fleet, f.cfg.Host = c, host
}

// Each lane pushes its map every SyncEvery periods and once on exit.
func TestRunPushesTemplateOnCadence(t *testing.T) {
	ts, reg, _ := registryFixture(t)
	f := newFixture(t, false, violating, "vlc")
	f.useFleet(t, ts.URL, "host-a", nil)
	f.cfg.SyncEvery = 10
	r := f.start(t, context.Background())
	syncer := r.l.lanes[0].syncer
	revision := func() int {
		e, _ := reg.Get("vlc", "")
		return e.Revision
	}
	r.tick(11) // periods 1–10 done
	if got := revision(); got != 1 {
		t.Fatalf("revision after period 10 = %d, want 1", got)
	}
	r.tick(10) // periods 11–20 done
	if got := revision(); got != 2 {
		t.Fatalf("revision after period 20 = %d, want 2", got)
	}
	r.tick(7) // period 28, in flight when the ticks close, then the exit push
	if err := r.stop(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := syncer.Stats(); st.Pushes != 3 || st.Failures != 0 {
		t.Errorf("sync stats = %d ok, %d failed; want 3 pushes (10, 20, exit)", st.Pushes, st.Failures)
	}
	e, ok := reg.Get("vlc", "")
	if !ok || e.Revision != 3 {
		t.Fatalf("registry entry %+v (found %v), want revision 3", e, ok)
	}
	if e.Template.SensitiveApp != "vlc" || len(e.Template.States) == 0 {
		t.Errorf("pushed template: app %q, %d states", e.Template.SensitiveApp, len(e.Template.States))
	}
	if err := e.Template.Validate(); err != nil {
		t.Errorf("pushed template invalid: %v", err)
	}
}

// A registry that never answers costs the host no control: every period
// runs and throttles, every sync fails, and Run still exits cleanly.
func TestRunToleratesPushFailures(t *testing.T) {
	ts, reg, _ := registryFixture(t)
	gate := &gatedTransport{down: true}
	f := newFixture(t, false, violating, "vlc")
	f.useFleet(t, ts.URL, "host-a", gate)
	f.cfg.SyncEvery = 5
	r := f.start(t, context.Background())
	syncer := r.l.lanes[0].syncer
	r.tick(28)
	if err := r.stop(); err != nil {
		t.Fatalf("Run = %v; failed pushes must not stop the loop", err)
	}
	if got := r.l.board.Snapshot().Periods; got != 28 {
		t.Errorf("completed periods = %d, want 28", got)
	}
	if !f.froze("s/b1") {
		t.Error("the violating lane never throttled during the outage")
	}
	// The failed bootstrap, then a failed push and heartbeat at 5, 10,
	// 15, 20, 25 and exit.
	st := syncer.Stats()
	if st.Pushes != 0 || st.Failures != 13 {
		t.Errorf("sync stats = %d ok, %d failed; want none ok and 13 failed", st.Pushes, st.Failures)
	}
	if st.Err == nil || !strings.Contains(st.Err.Error(), "simulated outage") {
		t.Errorf("syncer degraded with %v, want the outage error", st.Err)
	}
	if e, ok := reg.Get("vlc", ""); ok {
		t.Errorf("registry holds %+v through a total outage", e)
	}
}

// A registry outage in the middle of a run must not interrupt control:
// the daemon keeps protecting from its local map, the failed syncs mark
// it degraded, the first push after recovery resyncs, and shutdown
// flushes one final push.
func TestRunRegistryOutageMidRun(t *testing.T) {
	ts, reg, _ := registryFixture(t)
	gate := &gatedTransport{}
	f := newFixture(t, false, violating, "vlc")
	f.useFleet(t, ts.URL, "host-a", gate)
	f.cfg.SyncEvery = 5
	f.cfg.StateDir = filepath.Join(f.dir, "state")
	r := f.start(t, context.Background())
	syncer := r.l.lanes[0].syncer

	r.tick(13) // periods 1–12: pushes at 5 and 10
	if e, ok := reg.Get("vlc", ""); !ok || e.Revision != 2 {
		t.Fatalf("healthy phase: registry entry %+v (found %v), want revision 2", e, ok)
	}
	gate.setDown(true)
	r.tick(10) // periods 13–22: the syncs at 15 and 20 fail
	if syncer.Stats().Err == nil {
		t.Error("outage not reflected in the syncer state")
	}
	gate.setDown(false)
	r.tick(2) // period 25, in flight when the ticks close, resyncs
	if err := r.stop(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	st := syncer.Stats()
	if st.Err != nil {
		t.Error("syncer still degraded after recovery")
	}
	// Each failed sync point is one failed push and one failed heartbeat.
	if st.Failures != 4 || st.Pushes != 4 {
		t.Errorf("sync stats = %d ok, %d failed; want 4 pushes (5, 10, 25, exit) and 4 failures", st.Pushes, st.Failures)
	}
	e, ok := reg.Get("vlc", "")
	if !ok || e.Revision != 4 || len(e.Template.States) == 0 {
		t.Fatalf("registry entry %+v (found %v), want revision 4 with the host's map", e, ok)
	}
	if ck := loadCheckpoint(t, filepath.Join(f.cfg.StateDir, "checkpoint-vlc.json")); ck == nil || ck.Periods != 25 {
		t.Errorf("final checkpoint %+v: control did not run every period through the outage", ck)
	}
}

func TestRunSkipsPushWhileMapEmpty(t *testing.T) {
	ts, reg, _ := registryFixture(t)
	f := newFixture(t, false, healthy, "vlc")
	f.useFleet(t, ts.URL, "host-a", nil)
	r := f.start(t, context.Background())
	// The loop exits before any period: the exit push finds an empty map.
	if err := r.stop(); err != nil {
		t.Fatal(err)
	}
	if st := r.l.lanes[0].syncer.Stats(); st.Pushes != 0 || st.Failures != 0 {
		t.Errorf("sync stats = %d ok, %d failed; want no push of an empty map", st.Pushes, st.Failures)
	}
	if e, ok := reg.Get("vlc", ""); ok {
		t.Errorf("pushed an empty map: registry holds %+v", e)
	}
}

// learn runs a one-lane daemon for app, its sensitive cgroup at cg, over
// its own tree for six periods with the application violating at memMB of
// memory, pushing its map to the registry at url on exit.
func learn(t *testing.T, url, app, cg string, memMB int) {
	t.Helper()
	f := newFixture(t, false, violating, app)
	if d := &f.cfg.Lanes.Lanes[0]; d.SensitiveCgroup != cg {
		f.tree.AddCgroup(cg, memberPID)
		d.SensitiveCgroup = cg
	}
	f.tree.Set(cg+"/memory.current", fmt.Sprintf("%d\n", memMB<<20))
	f.useFleet(t, url, "host-donor", nil)
	r := f.start(t, context.Background())
	r.tick(6)
	if err := r.stop(); err != nil {
		t.Fatal(err)
	}
}

func TestRunBootstrapsFromFleet(t *testing.T) {
	ts, _, _ := registryFixture(t)
	learn(t, ts.URL, "vlc", "s/vlc", 2048)

	f := newFixture(t, false, healthy, "vlc")
	f.useFleet(t, ts.URL, "host-b", nil)
	f.wire(t, nil)
	l, err := newLoop(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sp := l.lanes[0].rt.Space(); sp.Len() == 0 || !sp.HasViolations() {
		t.Errorf("bootstrapped lane holds %d states (violations %v) before its first period, want the fleet's map",
			sp.Len(), sp.HasViolations())
	}
	if st := l.lanes[0].syncer.Stats(); st.Revision != 1 || st.Applied != 1 {
		t.Errorf("bootstrap revisions = synced %d, applied %d; want 1, 1", st.Revision, st.Applied)
	}
}

// A streamed fleet delta is merged only at a period boundary, and one
// the lane rejects leaves the stream's revision cursor where it was, so
// a later poll re-fetches it.
func TestRunAdoptsStreamedDeltaAtPeriodBoundary(t *testing.T) {
	ts, reg, _ := registryFixture(t)
	f := newFixture(t, false, healthy, "vlc")
	f.useFleet(t, ts.URL, "host-b", nil)
	f.cfg.Stream = true
	r := f.start(t, context.Background())
	ss := r.l.lanes[0].syncer
	waitFor(t, "the stream to connect", func() bool { return ss.Stats().Streaming })
	r.tick(3)
	states := func() int { return r.l.board.Snapshot().Lanes[0].States }
	before := states()

	// Another host's map under a different measurement schema.
	foreign := &statespace.Template{
		Version: 2, SensitiveApp: "vlc", Dim: 1,
		SchemaVMs:     []string{"other"},
		SchemaMetrics: []metrics.Metric{metrics.MetricCPU},
		States:        []statespace.TemplateState{{Vector: []float64{0.5}, Label: statespace.Safe.String(), Weight: 1}},
		Ranges:        metrics.DefaultRanges(4, 4096, 200, 1000),
	}
	if _, err := reg.Put("host-x", foreign); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the foreign delta", func() bool { return ss.Stats().Events == 1 })
	r.tick(2)
	if rev := ss.Stats().Applied; rev != 0 {
		t.Errorf("revision cursor = %d after a rejected delta, want 0", rev)
	}

	learn(t, ts.URL, "vlc", "s/vlc", 2048)
	waitFor(t, "the donor's delta", func() bool { return ss.Stats().Events == 2 })
	if got := states(); got != before {
		t.Fatalf("map changed from %d to %d states between periods", before, got)
	}
	r.tick(2)
	if got := states(); got <= before {
		t.Errorf("map has %d states after the boundary, want more than %d", got, before)
	}
	if rev := ss.Stats().Applied; rev != 1 {
		t.Errorf("revision cursor = %d after the merge, want 1", rev)
	}
	if err := r.stop(); err != nil {
		t.Fatal(err)
	}
	if ln := r.l.lanes[0]; ln.merges != 1 || ln.merged.Added == 0 {
		t.Errorf("merges = %d (%+v), want one adding states", ln.merges, ln.merged)
	}
}

// A lane whose QoS report has gone silent reads as stale on /readyz.
func TestRunReadyzShowsQoSStaleness(t *testing.T) {
	f := newFixture(t, false, "garbage\n", "vlc", "kv")
	f.report(t, "kv", healthy)
	r := f.start(t, context.Background())
	r.tick(9) // the default QoSStaleAfter is 5 silent periods
	admin, err := NewAdmin(AdminConfig{Board: r.l.board})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	admin.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var s Status
	if err := json.NewDecoder(rec.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || len(s.Lanes) != 2 {
		t.Fatalf("/readyz = %d with %d lanes", rec.Code, len(s.Lanes))
	}
	if !s.Lanes[0].QoSStale || s.Lanes[1].QoSStale {
		t.Errorf("qos_stale = vlc %v, kv %v; want only the silent vlc lane stale",
			s.Lanes[0].QoSStale, s.Lanes[1].QoSStale)
	}
}

// A lanes file is never the legacy layout, even with one lane: its
// template and checkpoint are app-suffixed from the start.
func TestRunLanesFileWritesPerAppTemplate(t *testing.T) {
	f := newFixture(t, false, violating, "vlc")
	f.cfg.LanesFile = filepath.Join(f.dir, "lanes.json")
	f.cfg.StateDir = filepath.Join(f.dir, "state")
	f.cfg.TemplateOut = filepath.Join(f.dir, "map.json")
	r := f.start(t, context.Background())
	r.tick(3)
	if err := r.stop(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		filepath.Join(f.dir, "map-vlc.json"),
		filepath.Join(f.cfg.StateDir, "checkpoint-vlc.json"),
	} {
		if _, err := os.Stat(want); err != nil {
			t.Errorf("missing %s: %v", want, err)
		}
	}
	for _, legacy := range []string{f.cfg.TemplateOut, filepath.Join(f.cfg.StateDir, "checkpoint.json")} {
		if _, err := os.Stat(legacy); !os.IsNotExist(err) {
			t.Errorf("legacy file %s written (stat err %v)", legacy, err)
		}
	}
}
