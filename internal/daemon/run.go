package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cgroup"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/fsatomic"
	"repro/internal/metrics"
	"repro/internal/procenv"
	"repro/internal/resilience"
	"repro/internal/stream"
	"repro/internal/throttle"
)

// The daemon's own admin metrics, distinct from the fleet sync counters
// written by -metrics-file.
const (
	metricReloads   = "stayaway_daemon_reloads_total"
	helpReloads     = "Hot reload attempts by result."
	metricPeriods   = "stayaway_daemon_periods_total"
	helpPeriods     = "Completed control periods."
	metricLanes     = "stayaway_daemon_lanes"
	helpLanes       = "Protection lanes currently running."
	metricLaneLevel = "stayaway_daemon_lane_level"
	helpLaneLevel   = "Lane's current batch allowance (1 free, 0 frozen)."
)

// LaneSet is the protected applications the daemon starts with: compiled
// from the -sensitive-cgroup/-qos-file/-app flags (one lane in PID mode)
// or read from the lanes file.
type LaneSet struct {
	Lanes []LaneDef
	// Legacy selects the single-tenant layout: collector group
	// "sensitive", checkpoint.json and an unsuffixed -template-out file.
	// Only a single lane given by flags is legacy. A lanes-file set never
	// is, even with one lane: it can grow live, and a lane's group name,
	// checkpoint and template must not change when it does.
	Legacy bool
}

// Group is the lane's collector group name (core.Config.SensitiveID).
func (s LaneSet) Group(d LaneDef) string {
	if s.Legacy {
		return "sensitive"
	}
	return d.SensitiveCgroup
}

// CheckpointPath is where the lane's learned state is checkpointed under
// stateDir; "" when stateDir is (no crash safety).
func (s LaneSet) CheckpointPath(stateDir, app string) string {
	switch {
	case stateDir == "":
		return ""
	case s.Legacy:
		return filepath.Join(stateDir, "checkpoint.json")
	}
	return resilience.LaneCheckpointPath(stateDir, app)
}

// TemplatePath derives the lane's -template-out file: the legacy lane
// writes base verbatim, every other lane base with "-<app>" before the
// extension.
func (s LaneSet) TemplatePath(base, app string) string {
	if s.Legacy {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + app + ext
}

// Config is Run's input: the host side stayawayd builds from its PID- or
// cgroup-mode flags, the compiled lane set, and the loop's own flag
// values.
type Config struct {
	// Env is the shared telemetry view. Every starting lane's collector
	// group (Lanes.Group) and every batch ID must be registered on its
	// sampler.
	Env *procenv.HostEnv
	// Groups is Env's cgroup collector: hot reload registers and drops
	// lanes' sensitive groups on it. Required with LanesFile.
	Groups *cgroup.Collector
	// Actuator throttles the batch workloads named by BatchIDs. Release
	// is the raw thaw of all of them, bypassing the ledger: the backstop
	// every exit runs.
	Actuator throttle.Actuator
	Release  func() error
	BatchIDs []string
	// Watching describes the monitored workloads for the startup line.
	Watching string

	Lanes LaneSet
	// LanesFile is the file Lanes was read from, if any: SIGHUP, POST
	// /v1/reload and, with ReloadWatch, its changes reload it live.
	LanesFile   string
	ReloadWatch bool

	// Pipeline: normalisation ranges, graded throttling, and the seed —
	// lane i, counted in the order lanes are added, gets Seed+i.
	Ranges map[metrics.Metric]metrics.Range
	Graded bool
	Seed   int64

	// Ticks paces the periods, one host period per tick; Period is the
	// interval, for the watchdog. Closing Ticks, like cancelling Run's
	// context, ends the loop. Hangup delivers SIGHUP.
	Ticks  <-chan time.Time
	Hangup <-chan os.Signal
	Period time.Duration

	// StateDir enables crash safety: the actuation ledger and per-lane
	// checkpoints, every CheckpointEvery periods. WatchdogGrace missed
	// periods make the watchdog thaw everything (0: no watchdog).
	StateDir        string
	CheckpointEvery int
	WatchdogGrace   int

	// Fleet is the registry client (nil: standalone) and Host this host's
	// identity to it; each lane gets its own fleet.Syncer over them. Each
	// lane pushes its map every SyncEvery periods and once on exit; with
	// Stream it follows the registry's push stream; MetricsFile receives
	// the lanes' sync counters.
	Fleet       *fleet.Client
	Host        string
	SyncEvery   int
	Stream      bool
	MetricsFile string

	// AdminAddr serves the admin surface; Key HMAC-signs its mutating and
	// streaming routes.
	AdminAddr string
	Key       []byte

	// TemplateOut receives each lane's learned map on exit.
	TemplateOut string
	Verbose     bool
}

// lane is one running protection lane and its daemon-side wiring.
type lane struct {
	def    LaneDef
	app    string // fleet-wide application name
	sig    *procenv.AppSignals
	rt     *core.Lane
	ckPath string
	syncer *fleet.Syncer // nil when standalone
	// unfollow cancels the syncer's Follow goroutine and waits for it to
	// return; nil unless the lane follows the stream.
	unfollow func()
	periods  int
	viols    int
	merges   int // fleet deltas folded into the live map
	merged   core.MergeStats
}

// loop is the control loop's state. The admin and watchdog goroutines
// reach only the board, the hub, the admin metrics, the reloader and
// release, all set before they start; the rest belongs to the goroutine
// running the loop.
type loop struct {
	cfg      Config
	host     *core.HostRuntime
	lanes    []*lane
	release  func() error // thaw-all: arbiter, ledger replay, raw release
	added    int64        // lanes added so far; seeds the next one
	periods  int
	board    *Board
	hub      *stream.Hub
	metrics  *stream.MetricSet
	reloader *Reloader
	watcher  *Watcher
	wd       *resilience.Watchdog
}

// RecoverLedger replays the actuation ledger a previous incarnation left
// in stateDir, thawing every batch workload it may have left throttled
// (after a SIGKILL, an OOM kill, a panic), and returns the ledger, what
// was thawed, and the replay error. The ledger is an upper bound on
// applied throttling (restrictions are recorded before actuation,
// releases after), so replay can only over-thaw, which is idempotent. A
// corrupt ledger is logged and treated as "everything throttled". The
// ledger is nil only when stateDir or the ledger file is unusable.
func RecoverLedger(stateDir string, act throttle.Actuator, batchIDs []string) (*resilience.Ledger, []string, error) {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("-state-dir: %v", err)
	}
	ledger, err := resilience.OpenLedger(filepath.Join(stateDir, "ledger.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "stayawayd: ledger unreadable, assuming everything throttled: %v\n", err)
	}
	thawed, err := resilience.Recover(ledger, act, batchIDs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stayawayd: ledger recovery: %v\n", err)
	}
	if len(thawed) > 0 {
		fmt.Printf("stayawayd: recovered: thawed %v\n", thawed)
	}
	return ledger, thawed, err
}

// Run is stayawayd's control loop. It recovers the ledger, wires the
// lanes and seeds each from its checkpoint or else from the fleet, then
// runs one host period per tick — with hot reload, fleet push and
// stream adoption, the watchdog, checkpoints and the admin surface
// around it — until ctx is cancelled, Ticks closes, or every monitored
// workload has exited. However the loop ends, a panic in a period
// included, every batch workload is released before Run returns.
func Run(ctx context.Context, cfg Config) error {
	l, err := newLoop(cfg)
	if err != nil {
		return err
	}
	return l.run(ctx)
}

// newLoop runs everything before the first period that starts no
// goroutine: recovery, lane wiring, checkpoint restore or fleet bootstrap.
func newLoop(cfg Config) (*loop, error) {
	if cfg.Env == nil || cfg.Actuator == nil || cfg.Release == nil || cfg.Ticks == nil {
		return nil, errors.New("daemon: Run needs Env, Actuator, Release and Ticks")
	}
	if len(cfg.Lanes.Lanes) == 0 {
		return nil, errors.New("daemon: no lanes to run")
	}
	if cfg.LanesFile != "" && cfg.Groups == nil {
		return nil, errors.New("daemon: hot reload needs the cgroup collector")
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = 30
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 30
	}
	l := &loop{cfg: cfg, board: NewBoard(), release: cfg.Release}

	// Crash safety comes first: if a dead daemon left cgroups frozen,
	// thawing them outranks every other startup step. One ledger serves
	// every lane: the arbiter merges per-lane decisions BEFORE they reach
	// the ledgered actuator, so the write-ahead log holds exactly the
	// effective actuations on the shared pool.
	act := cfg.Actuator
	if cfg.StateDir != "" {
		ledger, thawed, err := RecoverLedger(cfg.StateDir, act, cfg.BatchIDs)
		if ledger == nil {
			return nil, err
		}
		l.board.Update(func(s *Status) {
			s.LedgerRecovered = len(thawed)
			if err != nil {
				s.LedgerRecoveryError = err.Error()
			}
		})
		la, err := resilience.NewLedgeredActuator(act, ledger)
		if err != nil {
			return nil, err
		}
		act = la
		l.release = func() error {
			// Recover rather than plain Resume: it also clears graded
			// quotas and resets the ledger so the next boot is clean.
			if _, err := resilience.Recover(ledger, act, cfg.BatchIDs); err != nil {
				return err
			}
			return cfg.Release()
		}
	}

	host, err := core.NewHost(cfg.Env, act)
	if err != nil {
		return nil, err
	}
	l.host = host
	for _, d := range cfg.Lanes.Lanes {
		if _, err := l.addLane(d); err != nil {
			return nil, err
		}
	}
	downstream := l.release
	l.release = func() error {
		// The arbiter's lane desires must be cleared alongside the
		// downstream thaw, or surviving controllers would re-merge stale
		// restrictions on the next period.
		err := host.Release()
		if rerr := downstream(); err == nil {
			err = rerr
		}
		return err
	}

	if cfg.LanesFile != "" {
		l.reloader = NewReloader(cfg.LanesFile, cfg.Lanes.Lanes, cfg.BatchIDs)
		if cfg.ReloadWatch {
			l.watcher = NewWatcher(cfg.LanesFile)
		}
	}
	if cfg.AdminAddr != "" {
		l.hub = stream.NewHub(stream.HubConfig{Epoch: time.Now().UnixNano()})
		l.metrics = stream.NewMetricSet()
	}
	if cfg.WatchdogGrace > 0 {
		// The watchdog runs beside the loop: if periods stop completing (a
		// hung cgroupfs read blocks the collector, say), it thaws
		// everything from its own goroutine — the stalled loop cannot.
		l.wd, err = resilience.NewWatchdog(resilience.WatchdogConfig{
			Period:  cfg.Period,
			Grace:   cfg.WatchdogGrace,
			OnStall: l.onStall,
		})
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

// run starts the stream, admin and watchdog goroutines, runs the periods,
// then drains, releases and reports.
func (l *loop) run(ctx context.Context) error {
	if l.hub != nil {
		defer l.hub.Close()
	}
	for _, ln := range l.lanes {
		l.follow(ln)
	}
	// Lanes added by reload since follow too; removed ones have stopped.
	defer func() {
		for _, ln := range l.lanes {
			ln.stopFollowing()
		}
	}()
	if l.cfg.Stream && l.cfg.Fleet != nil {
		fmt.Printf("stayawayd: streaming fleet updates for %d lane(s)\n", len(l.lanes))
	}
	var adminSrv *http.Server
	if l.cfg.AdminAddr != "" {
		var err error
		if adminSrv, err = l.serveAdmin(); err != nil {
			return err
		}
	}
	if l.wd != nil {
		wdCtx, wdCancel := context.WithCancel(context.Background())
		defer wdCancel()
		go l.wd.Run(wdCtx)
	}

	fmt.Printf("stayawayd: monitoring %s every %v (%d lane(s))\n", l.cfg.Watching, l.cfg.Period, len(l.lanes))
	loopErr := l.control(ctx)

	// Graceful drain: take every lane out through the arbiter's merge —
	// the same fail-safe path a live removal uses — so each departing
	// batch restriction is released exactly once and the final release
	// below is a backstop, not the primary thaw. Skipped after a panic:
	// mid-period invariants cannot be trusted, the raw thaw handles it.
	if loopErr == nil {
		for _, ln := range l.lanes {
			if _, err := l.host.RemoveLane(ln.app); err != nil {
				fmt.Fprintf(os.Stderr, "stayawayd: drain %s: %v\n", ln.app, err)
			}
		}
	}
	// Never leave batch workloads throttled on exit — including after a
	// panic absorbed by control.
	if err := l.release(); err != nil {
		fmt.Fprintln(os.Stderr, "stayawayd: final release:", err)
	}
	l.board.Update(func(s *Status) { s.Ready = false })
	if adminSrv != nil {
		// Closing the hub first unblocks SSE handlers so Shutdown can
		// finish within its grace window.
		l.hub.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if err := adminSrv.Shutdown(ctx); err != nil {
			adminSrv.Close()
		}
		cancel()
	}
	if loopErr != nil {
		// No final checkpoint after a panic: mid-period invariants cannot
		// be trusted, and a corrupt checkpoint is worse than a stale one.
		return loopErr
	}
	return l.finish()
}

// control runs one period per tick until the loop ends. A panic in a
// period becomes its error, so the caller still releases everything — a
// crashing daemon must never strand batch workloads frozen (SIGKILL
// still can; that is what the ledger replay at next boot is for).
func (l *loop) control(ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("control loop panic: %v", r)
		}
	}()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-l.cfg.Hangup:
			if l.reloader == nil {
				fmt.Fprintln(os.Stderr, "stayawayd: SIGHUP ignored: hot reload needs -lanes-file")
				continue
			}
			l.queueReload("SIGHUP")
		case _, ok := <-l.cfg.Ticks:
			if !ok {
				return nil
			}
			if l.period() {
				fmt.Println("stayawayd: all monitored workloads exited")
				return nil
			}
		}
	}
}

// period runs one tick: reload and fleet adoption at the boundary, the
// host period, then its bookkeeping. It reports whether every monitored
// workload has exited.
func (l *loop) period() (exited bool) {
	if l.watcher != nil && l.watcher.Changed() {
		l.queueReload("watch")
	}
	l.applyReload()
	l.adopt()
	evs, err := l.host.Period()
	// The lanes that ran before a failing one still report their period.
	l.drain(evs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stayawayd: period:", err)
		return false
	}
	if l.wd != nil {
		l.wd.Beat()
	}
	l.periods++
	l.publish()
	if l.periods%l.cfg.SyncEvery == 0 {
		for i, ln := range l.lanes {
			l.sync(ln, evs[i].Throttled)
		}
		l.writeMetrics()
	}
	if l.periods%l.cfg.CheckpointEvery == 0 {
		l.checkpoint()
	}
	if l.cfg.Env.BatchActive() {
		return false
	}
	for _, ln := range l.lanes {
		if ln.sig.SensitiveRunning() {
			return false
		}
	}
	return true
}

// finish is the clean exit's bookkeeping: final checkpoint, the last
// events, a final fleet push, the per-lane reports and the templates.
func (l *loop) finish() error {
	l.checkpoint()
	for _, ln := range l.lanes {
		// Share the freshest map with the fleet before exiting.
		l.sync(ln, false)
		if !l.cfg.Lanes.Legacy {
			fmt.Printf("--- %s ---\n", ln.app)
		}
		fmt.Println(ln.rt.Report())
		if ln.unfollow != nil {
			st := ln.syncer.Stats()
			fmt.Printf("fleet stream: %d merges (%d states adopted, %d upgraded, %d matched), "+
				"%d events, %d reconnects, %d fallback polls\n",
				ln.merges, ln.merged.Added, ln.merged.Upgraded, ln.merged.Matched,
				st.Events, st.Reconnects, st.Polls)
		}
	}
	l.writeMetrics()
	for _, ln := range l.lanes {
		if ln.syncer == nil {
			continue
		}
		if err := ln.syncer.Stats().Err; err != nil {
			fmt.Fprintf(os.Stderr, "stayawayd: %s: exiting out of sync with the registry: %v\n", ln.app, err)
		}
	}
	if l.cfg.TemplateOut == "" {
		return nil
	}
	for _, ln := range l.lanes {
		path := l.cfg.Lanes.TemplatePath(l.cfg.TemplateOut, ln.app)
		err := fsatomic.WriteFileFunc(path, 0o644, func(w io.Writer) error {
			_, err := ln.rt.ExportTemplate(ln.app).WriteTo(w)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("template written to %s\n", path)
	}
	return nil
}

func (l *loop) logf(format string, args ...any) {
	if l.cfg.Verbose {
		fmt.Fprintf(os.Stderr, "stayawayd: "+format+"\n", args...)
	}
}

// laneConfig builds one lane's pipeline config; startup lanes and hot
// reload's adds and changes share it, so all produce identical lanes.
func (l *loop) laneConfig(group, app string) core.Config {
	cfg := core.DefaultConfig(group, l.cfg.BatchIDs, l.cfg.Ranges)
	cfg.Seed = l.cfg.Seed + l.added
	l.added++
	cfg.SensitiveApp = app
	if l.cfg.Graded {
		cfg.Throttle.Policy = throttle.PolicyGraded
	}
	return cfg
}

// addLane adds d's lane to the host runtime and seeds it; its collector
// group must already be registered.
func (l *loop) addLane(d LaneDef) (*lane, error) {
	ln := &lane{def: d, app: d.Name()}
	group := l.cfg.Lanes.Group(d)
	var err error
	if ln.sig, err = l.cfg.Env.Signals(group, procenv.FileQoS{Path: d.QoSFile}); err != nil {
		return nil, err
	}
	if ln.rt, err = l.host.AddLane(l.laneConfig(group, ln.app), ln.sig); err != nil {
		return nil, err
	}
	ln.ckPath = l.cfg.Lanes.CheckpointPath(l.cfg.StateDir, ln.app)
	if l.cfg.Fleet != nil {
		ln.syncer = l.newSyncer(ln.app)
	}
	l.lanes = append(l.lanes, ln)
	// The lane resumes its own learning, or else pulls its application's
	// consensus map; a cold or unreachable registry never blocks it.
	switch restored := ln.restore(); {
	case ln.syncer == nil:
	case restored:
		// The local checkpoint is this host's own learned map; adopting
		// the fleet template would discard it. Keep the local state and
		// let the periodic pushes reconcile.
		fmt.Printf("stayawayd: %s: checkpoint restored; skipping fleet bootstrap\n", ln.app)
	default:
		ln.bootstrap()
	}
	return ln, nil
}

func (l *loop) newSyncer(app string) *fleet.Syncer {
	s := fleet.NewSyncer(l.cfg.Fleet, l.cfg.Host, app)
	s.Logf = l.logf
	return s
}

// follow starts ln's Follow goroutine in -stream mode, so a violation
// learned on another host reaches this one within a control period
// instead of at -sync-every cadence. Follow only stashes deltas; adopt
// merges them at period boundaries, so the live map is never touched
// mid-period.
func (l *loop) follow(ln *lane) {
	if !l.cfg.Stream || ln.syncer == nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func(s *fleet.Syncer) {
		defer close(done)
		s.Follow(ctx)
	}(ln.syncer)
	ln.unfollow = func() {
		cancel()
		<-done
	}
}

// stopFollowing cancels the lane's Follow goroutine and waits for it.
func (ln *lane) stopFollowing() {
	if ln.unfollow != nil {
		ln.unfollow()
		ln.unfollow = nil
	}
}

// restore adopts the lane's checkpoint before its first period. A
// missing checkpoint is a cold start; a corrupt or incompatible one is
// logged and ignored — losing learned state is recoverable, refusing to
// start is not.
func (ln *lane) restore() bool {
	if ln.ckPath == "" {
		return false
	}
	switch ck, err := resilience.LoadCheckpoint(ln.ckPath); {
	case err != nil:
		fmt.Fprintf(os.Stderr, "stayawayd: %s: checkpoint unreadable, starting cold: %v\n", ln.app, err)
	case ck != nil:
		if err := ln.rt.RestoreCheckpoint(ck); err != nil {
			fmt.Fprintf(os.Stderr, "stayawayd: %s: checkpoint rejected, starting cold: %v\n", ln.app, err)
			return false
		}
		fmt.Printf("stayawayd: %s: restored checkpoint (%d periods of learning, %d states)\n",
			ln.app, ck.Periods, len(ck.Template.States))
		return true
	}
	return false
}

// bootstrap seeds a lane with its application's fleet template.
func (ln *lane) bootstrap() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	tpl, rev, err := ln.syncer.Bootstrap(ctx)
	cancel()
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "stayawayd: %s: registry bootstrap failed, starting cold: %v\n", ln.app, err)
	case tpl == nil:
		fmt.Printf("stayawayd: registry has no template for %q yet, learning from scratch\n", ln.app)
	default:
		if err := ln.rt.ImportTemplate(tpl); err != nil {
			fmt.Fprintf(os.Stderr, "stayawayd: %s: fleet template rejected, starting cold: %v\n", ln.app, err)
			return
		}
		fmt.Printf("stayawayd: bootstrapped %q from fleet revision %d (%d states)\n", ln.app, rev, len(tpl.States))
	}
}

// serveAdmin starts the admin HTTP surface.
func (l *loop) serveAdmin() (*http.Server, error) {
	var reloadHook func() error
	if l.reloader != nil {
		reloadHook = func() error { return l.queueReload("POST /v1/reload") }
	}
	admin, err := NewAdmin(AdminConfig{
		Board:   l.board,
		Hub:     l.hub,
		Metrics: l.metrics,
		Reload:  reloadHook,
		Key:     l.cfg.Key,
		Logf:    l.logf,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", l.cfg.AdminAddr)
	if err != nil {
		return nil, fmt.Errorf("-admin-addr: %w", err)
	}
	srv := &http.Server{Handler: admin.Handler()}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "stayawayd: admin server: %v\n", err)
		}
	}()
	fmt.Printf("stayawayd: admin surface on http://%s\n", ln.Addr())
	return srv, nil
}

// onStall is the watchdog's action, run from its goroutine.
func (l *loop) onStall(since time.Duration) {
	fmt.Fprintf(os.Stderr, "stayawayd: watchdog: no completed period for %v, thawing everything\n", since)
	// Flip readiness from here: the stalled loop cannot publish its own
	// bad news.
	l.board.Update(func(s *Status) {
		s.WatchdogStalled = true
		s.WatchdogStalls++
	})
	if err := l.release(); err != nil {
		fmt.Fprintln(os.Stderr, "stayawayd: watchdog release:", err)
	}
}

// sync pushes the lane's map to the registry and heartbeats its status.
// Failures only mark the syncer degraded: losing the registry must not
// cost the host its protection.
func (l *loop) sync(ln *lane, throttled bool) {
	if ln.syncer == nil {
		return
	}
	if ln.rt.Space().Len() > 0 {
		if err := ln.syncer.PushTemplate(ln.rt.ExportTemplate(ln.app)); err != nil {
			fmt.Fprintln(os.Stderr, "stayawayd: registry push failed (degraded, continuing):", err)
		}
	}
	if err := ln.syncer.Heartbeat(fleet.Heartbeat{
		Periods: ln.periods, Violations: ln.viols, Throttled: throttled,
	}); err == nil && l.cfg.Verbose {
		fmt.Printf("stayawayd: %s: registry sync ok, revision %d\n", ln.app, ln.syncer.Stats().Revision)
	}
}

// adopt runs between periods and folds any delta the stream goroutines
// have stashed into each lane's live map. A rejected merge (schema
// drift, corrupt patch) is logged and skipped: the revision cursor stays
// put, so the next poll re-fetches an authoritative delta rather than
// silently losing fleet state.
func (l *loop) adopt() {
	for _, ln := range l.lanes {
		if ln.syncer == nil {
			continue
		}
		d := ln.syncer.TakeUpdate()
		if d == nil {
			continue
		}
		stats, err := ln.rt.MergeTemplate(d.Patch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stayawayd: %s: fleet delta rejected: %v\n", ln.app, err)
			continue
		}
		ln.syncer.MarkApplied(d.ToRevision)
		ln.merges++
		ln.merged.Added += stats.Added
		ln.merged.Upgraded += stats.Upgraded
		ln.merged.Matched += stats.Matched
		if l.cfg.Verbose || stats.Upgraded > 0 || stats.Added > 0 {
			fmt.Printf("stayawayd: %s: merged fleet revision %d (+%d states, %d upgraded, %d matched)\n",
				ln.app, d.ToRevision, stats.Added, stats.Upgraded, stats.Matched)
		}
	}
}

// writeMetrics renders the live lanes' sync state — push/degraded
// counters, and stream traffic for lanes that follow — to -metrics-file in
// Prometheus text format: the host-side half of the fleet observability
// story (the registry serves the other half at /metrics).
func (l *loop) writeMetrics() {
	if l.cfg.MetricsFile == "" || l.cfg.Fleet == nil {
		return
	}
	m := stream.NewMetricSet()
	for _, ln := range l.lanes {
		labels := []string{"app", ln.app}
		st := ln.syncer.Stats()
		m.Counter("stayaway_host_sync_pushes_total", "Successful sync operations.", labels...).Set(float64(st.Pushes))
		m.Counter("stayaway_host_sync_failures_total", "Failed sync operations.", labels...).Set(float64(st.Failures))
		m.Gauge("stayaway_host_sync_degraded", "1 while the lane protects from a stale local map.", labels...).Set(oneIf(st.Err != nil))
		m.Gauge("stayaway_host_template_revision", "Registry revision the lane last synced.", labels...).Set(float64(st.Revision))
		if ln.unfollow != nil {
			m.Gauge("stayaway_host_stream_live", "1 while the push stream is connected.", labels...).Set(oneIf(st.Streaming))
			m.Counter("stayaway_host_stream_events_total", "Delta events accepted from the stream.", labels...).Set(float64(st.Events))
			m.Counter("stayaway_host_stream_reconnects_total", "Stream reconnect attempts.", labels...).Set(float64(st.Reconnects))
			m.Counter("stayaway_host_stream_resets_total", "Server resets (lost resume position).", labels...).Set(float64(st.Resets))
			m.Counter("stayaway_host_stream_polls_total", "Fallback delta polls.", labels...).Set(float64(st.Polls))
		}
	}
	err := fsatomic.WriteFileFunc(l.cfg.MetricsFile, 0o644, func(w io.Writer) error {
		_, err := m.WriteTo(w)
		return err
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "stayawayd: metrics-file: %v\n", err)
	}
}

func oneIf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (l *loop) checkpoint() {
	for _, ln := range l.lanes {
		if ln.ckPath == "" || ln.rt.Space().Len() == 0 {
			continue
		}
		if err := resilience.SaveCheckpoint(ln.ckPath, ln.rt.Checkpoint()); err != nil {
			fmt.Fprintf(os.Stderr, "stayawayd: %s: checkpoint: %v\n", ln.app, err)
		}
	}
}

// drain consumes one host period's events, evs[i] being lane i's: it
// counts and prints them (the report) and feeds them to /v1/events
// subscribers. Nothing keeps them afterwards.
func (l *loop) drain(evs []core.Event) {
	for i, ev := range evs {
		ln := l.lanes[i]
		if ev.App != ln.app {
			panic(fmt.Sprintf("stayawayd: host lane %d ran %q, loop lane is %q", i, ev.App, ln.app))
		}
		ln.periods++
		if ev.Violation {
			ln.viols++
		}
		if l.cfg.Verbose || ev.Violation || ev.Action != throttle.ActionNone {
			if l.cfg.Lanes.Legacy {
				fmt.Println(ev)
			} else {
				fmt.Printf("[%s] %s\n", ln.app, ev)
			}
		}
		if l.hub != nil {
			l.hub.Publish(PeriodEvent(ev))
		}
	}
}

// publish pushes the period's outcome to the admin surface: the status
// board for /readyz and the admin metric set.
func (l *loop) publish() {
	health := l.host.Health()
	var wdStalled bool
	var wdStalls int
	if l.wd != nil {
		wdStalled, wdStalls, _, _ = l.wd.Status()
	}
	var rs ReloadStatus
	if l.reloader != nil {
		rs = l.reloader.Status()
	}
	l.board.Update(func(s *Status) {
		s.Ready = true
		s.Periods = l.periods
		s.Lanes = health
		s.WatchdogStalled = wdStalled
		s.WatchdogStalls = wdStalls
		s.Reload = rs
	})
	if l.metrics != nil {
		l.metrics.Counter(metricPeriods, helpPeriods).Add(1)
		l.metrics.Gauge(metricLanes, helpLanes).Set(float64(len(l.lanes)))
		for _, lh := range health {
			l.metrics.Gauge(metricLaneLevel, helpLaneLevel, "app", lh.App).Set(lh.Level)
		}
	}
}
