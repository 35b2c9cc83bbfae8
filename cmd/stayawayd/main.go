// Command stayawayd runs the Stay-Away middleware against real Linux
// workloads. QoS violations are read from a report file the sensitive
// application rewrites each period ("<value> <threshold>"). Two
// actuation/telemetry modes are available:
//
// PID mode (the paper's prototype): per-PID resource usage is sampled
// from /proc and batch processes are throttled with SIGSTOP/SIGCONT.
//
//	stayawayd -sensitive-pids 1234 -batch-pids 5678,5679 \
//	          -qos-file /run/vlc.qos -period 1s [-cores 4] [-v]
//
// cgroup mode: usage is read from cgroup v2 accounting files (cpu.stat,
// memory.current, io.stat) and batch cgroups are throttled through
// cgroup.freeze — or, with -graded, stepped cpu.max quotas that escalate
// to a freeze as the predicted violation proximity grows. If a control
// file turns out to be unwritable the actuator degrades to signalling the
// cgroup's member processes; a cgroup that vanishes mid-run is treated as
// finished work, never an error.
//
//	stayawayd -sensitive-cgroup stayaway/vlc -batch-cgroups stayaway/b1,stayaway/b2 \
//	          -qos-file /run/vlc.qos [-cgroup-root /sys/fs/cgroup] [-graded] \
//	          [-memory-high-mb 512]
//
// -sensitive-cgroup, -qos-file and -app are repeatable: giving them N
// times protects N sensitive applications on one host, each with its own
// pipeline lane (state space, trajectory models, learned β, checkpoint),
// all sharing the batch cgroups. The lanes' throttle decisions are merged
// by an actuation arbiter: freeze is a union, graded quotas take the most
// severe request, and the shared pool is released only when every
// restricting lane has satisfied its own resume condition. -lanes-file
// declares the same lanes in a file that SIGHUP or POST /v1/reload
// applies live.
//
//	stayawayd -sensitive-cgroup s/vlc -qos-file /run/vlc.qos -app vlc \
//	          -sensitive-cgroup s/kv  -qos-file /run/kv.qos  -app kv \
//	          -batch-cgroups s/b1,s/b2
//
// The two modes are mutually exclusive. The daemon runs until SIGINT/
// SIGTERM; on shutdown it releases any throttled batch workloads and
// prints the final report. -template-out exports the learned maps
// atomically; a single lane given by flags writes the file as named,
// any other lane an app-suffixed file.
//
// With -registry the daemon joins a fleet: each lane pulls the consensus
// template for its -app at startup, pushes its own map every -sync-every
// periods plus once on shutdown, and heartbeats its status. Registry
// outages never interrupt control — the daemon degrades to its local
// maps and resyncs when the registry returns. -stream merges violations
// learned on other hosts into the live map at the next period boundary,
// falling back to delta polling while the stream is down.
// -fleet-key/-fleet-key-file HMAC-sign every registry request, and
// -metrics-file writes the host's sync counters in Prometheus text.
//
// With -state-dir the daemon becomes crash-safe: every restrictive
// actuation is recorded in an on-disk ledger BEFORE it is applied, each
// lane's learned state is checkpointed every -checkpoint-every periods
// (checkpoint.json for a single flag lane, else checkpoint-<app>.json),
// and at boot the daemon replays the ledger — thawing every cgroup a
// previous incarnation may have left frozen — then restores the
// checkpoints. -recover-only performs just the ledger replay and exits.
// A watchdog (disable with -watchdog-grace 0) thaws everything if the
// control loop stops beating. A corrupt ledger or checkpoint is logged
// and ignored, never fatal: the daemon starts cold rather than refusing
// to protect.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cgroup"
	"repro/internal/daemon"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/procenv"
	"repro/internal/throttle"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stayawayd:", err)
		os.Exit(1)
	}
}

func parsePIDs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		pid, err := strconv.Atoi(part)
		if err != nil || pid <= 0 {
			return nil, fmt.Errorf("invalid PID %q", part)
		}
		out = append(out, pid)
	}
	return out, nil
}

func parseList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// listFlag is a repeatable string flag: every occurrence appends.
type listFlag []string

func (l *listFlag) String() string { return strings.Join(*l, ",") }

func (l *listFlag) Set(v string) error {
	if v = strings.TrimSpace(v); v != "" {
		*l = append(*l, v)
	}
	return nil
}

// options is everything validateOptions needs to decide whether the flag
// set describes a coherent deployment.
type options struct {
	sensitivePIDs []int
	batchPIDs     []int
	sensCgroups   []string
	batchCgroups  []string
	qosFiles      []string
	apps          []string
	graded        bool
	memoryHighMB  float64
	recoverOnly   bool
	lanesFile     string
	reloadWatch   bool
	eventWindow   int
}

// validate enforces the daemon's startup contract up front, before
// anything touches /proc or cgroupfs: a QoS source per sensitive
// application is mandatory (without the violation signal Stay-Away cannot
// learn anything), PID mode and cgroup mode are mutually exclusive, each
// mode needs both its sensitive and batch side, the PID sets must not
// overlap (throttling the sensitive app defeats the purpose), graded
// throttling requires the cgroup actuator (SIGSTOP has no intermediate
// levels), and multi-tenant runs (several -sensitive-cgroup) need
// positionally aligned -qos-file/-app lists. ALL problems are reported at
// once (errors.Join), so a misconfigured deployment is fixed in one
// edit-run cycle instead of one flag per attempt.
func (o options) validate() (cgroupMode bool, err error) {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	if len(o.qosFiles) == 0 && !o.recoverOnly {
		fail("-qos-file required: the application's QoS report is the violation signal (§3.1)")
	}
	pidMode := len(o.sensitivePIDs) > 0 || len(o.batchPIDs) > 0
	cgroupMode = len(o.sensCgroups) > 0 || len(o.batchCgroups) > 0
	switch {
	case pidMode && cgroupMode:
		fail("PID flags (-sensitive-pids/-batch-pids) and cgroup flags " +
			"(-sensitive-cgroup/-batch-cgroups) are mutually exclusive; pick one mode")
	case !pidMode && !cgroupMode:
		fail("no workloads given: use -sensitive-pids/-batch-pids (PID mode) " +
			"or -sensitive-cgroup/-batch-cgroups (cgroup mode)")
	case pidMode:
		if len(o.sensitivePIDs) == 0 {
			fail("-sensitive-pids required in PID mode")
		}
		if len(o.batchPIDs) == 0 {
			fail("-batch-pids required in PID mode")
		}
		sens := make(map[int]bool, len(o.sensitivePIDs))
		for _, pid := range o.sensitivePIDs {
			sens[pid] = true
		}
		for _, pid := range o.batchPIDs {
			if sens[pid] {
				fail("PID %d is listed as both sensitive and batch; "+
					"throttling the sensitive application defeats the purpose", pid)
			}
		}
		if o.graded {
			fail("-graded requires cgroup mode: SIGSTOP has no intermediate levels")
		}
		if o.memoryHighMB > 0 {
			fail("-memory-high-mb requires cgroup mode")
		}
		if len(o.qosFiles) > 1 {
			fail("PID mode protects one sensitive application; got %d -qos-file flags", len(o.qosFiles))
		}
		if len(o.apps) > 1 {
			fail("PID mode protects one sensitive application; got %d -app flags", len(o.apps))
		}
	default: // cgroup mode
		if len(o.sensCgroups) == 0 && !o.recoverOnly {
			// Recovery replays the ledger against the batch cgroups only;
			// the operator of a dead daemon shouldn't need its full config.
			fail("-sensitive-cgroup required in cgroup mode")
		}
		if len(o.batchCgroups) == 0 {
			fail("-batch-cgroups required in cgroup mode")
		}
		seen := map[string]bool{}
		for _, cg := range o.sensCgroups {
			if seen[cg] {
				fail("cgroup %q listed twice (or as both sensitive and batch)", cg)
			}
			seen[cg] = true
		}
		for _, cg := range o.batchCgroups {
			if seen[cg] {
				fail("cgroup %q listed twice (or as both sensitive and batch)", cg)
			}
			seen[cg] = true
		}
		if n := len(o.sensCgroups); n > 0 && !o.recoverOnly && len(o.qosFiles) != n {
			fail("%d -sensitive-cgroup flags need %d -qos-file flags (one QoS report per "+
				"protected application), got %d", n, n, len(o.qosFiles))
		}
		if n := len(o.sensCgroups); len(o.apps) > 0 && len(o.apps) != n {
			fail("-app given %d times but -sensitive-cgroup %d times; "+
				"give one -app per sensitive cgroup or none", len(o.apps), n)
		}
	}
	appSeen := map[string]bool{}
	for _, app := range o.apps {
		if appSeen[app] {
			fail("application name %q given twice; lanes need distinct -app names", app)
		}
		appSeen[app] = true
	}
	if o.memoryHighMB < 0 {
		fail("-memory-high-mb must be non-negative, got %v", o.memoryHighMB)
	}
	// In lanes-file mode the sensitive/qos/app lists arrive pre-populated
	// from the file (run() enforces the file-vs-flags exclusivity before
	// conversion); only the mode conflict is checkable here.
	if o.lanesFile != "" && pidMode {
		fail("-lanes-file requires cgroup mode: PID lanes cannot be reconfigured live")
	}
	if o.reloadWatch && o.lanesFile == "" {
		fail("-reload-watch requires -lanes-file (there is nothing else to watch)")
	}
	// 0 follows core.Config's contract: default window (4096).
	if o.eventWindow < -1 {
		fail("-event-window must be positive (events retained per lane), 0 for the default, or -1 for unbounded, got %d", o.eventWindow)
	}
	return cgroupMode, errors.Join(errs...)
}

// compileLanes turns the lane flags into the daemon's lane set and
// decides the layout, once: a single lane given by flags keeps the
// legacy single-tenant layout; several, or a lanes file (decl), use each
// lane's cgroup path and application name.
func compileLanes(o options, decl []daemon.LaneDef) daemon.LaneSet {
	if decl != nil {
		return daemon.LaneSet{Lanes: decl}
	}
	set := daemon.LaneSet{Legacy: len(o.sensCgroups) <= 1}
	for i := 0; i < max(len(o.sensCgroups), 1); i++ {
		d := daemon.LaneDef{App: "sensitive"}
		if i < len(o.sensCgroups) {
			d.SensitiveCgroup = o.sensCgroups[i]
			if !set.Legacy {
				d.App = d.SensitiveCgroup
			}
		}
		if i < len(o.apps) {
			d.App = o.apps[i]
		}
		if i < len(o.qosFiles) {
			d.QoSFile = o.qosFiles[i]
		}
		set.Lanes = append(set.Lanes, d)
	}
	return set
}

func run() error {
	var sensCgroups, qosFiles, apps listFlag
	sensitivePIDs := flag.String("sensitive-pids", "", "comma-separated PIDs of the sensitive application (PID mode)")
	batchPIDs := flag.String("batch-pids", "", "comma-separated PIDs of the batch applications (PID mode)")
	flag.Var(&sensCgroups, "sensitive-cgroup", "sensitive application's cgroup, relative to -cgroup-root (cgroup mode; repeatable: one lane per use)")
	batchCgroups := flag.String("batch-cgroups", "", "comma-separated batch cgroups, relative to -cgroup-root, shared by every lane (cgroup mode)")
	cgroupRoot := flag.String("cgroup-root", "/sys/fs/cgroup", "cgroup v2 hierarchy mount point")
	graded := flag.Bool("graded", false, "graded throttling: step cpu.max quotas before freezing (cgroup mode only)")
	memoryHighMB := flag.Float64("memory-high-mb", 0, "memory.high soft limit applied to throttled batch cgroups (0 = off)")
	flag.Var(&qosFiles, "qos-file", "file the sensitive app rewrites with \"<value> <threshold>\" (repeatable, aligned with -sensitive-cgroup)")
	period := flag.Duration("period", time.Second, "monitoring period")
	cores := flag.Int("cores", runtime.NumCPU(), "host cores (CPU normalization range)")
	memoryMB := flag.Float64("memory-mb", 4096, "host memory (normalization range)")
	diskMBps := flag.Float64("disk-mbps", 200, "disk capacity (normalization range)")
	templateOut := flag.String("template-out", "", "write the learned template JSON on exit (several lanes or a lanes file: app-suffixed files)")
	stateDir := flag.String("state-dir", "", "directory for the actuation ledger and learned-state checkpoints (empty = no crash safety)")
	recoverOnly := flag.Bool("recover-only", false, "replay the ledger (thaw everything a dead daemon left throttled) and exit; requires -state-dir")
	checkpointEvery := flag.Int("checkpoint-every", 30, "periods between learned-state checkpoints (requires -state-dir)")
	watchdogGrace := flag.Int("watchdog-grace", 3, "missed periods before the watchdog thaws everything (0 = no watchdog)")
	registryURL := flag.String("registry", "", "fleet registry base URL (empty = standalone)")
	flag.Var(&apps, "app", "fleet-wide application name for template sharing (repeatable, aligned with -sensitive-cgroup)")
	hostID := flag.String("host-id", "", "host identity reported to the registry (default: hostname)")
	syncEvery := flag.Int("sync-every", 30, "periods between registry pushes")
	streamMode := flag.Bool("stream", false, "subscribe to the registry's push stream: fleet violations merge into the live map within one period (requires -registry)")
	fleetKey := flag.String("fleet-key", "", "shared fleet key; when set, registry requests are HMAC-signed")
	fleetKeyFile := flag.String("fleet-key-file", "", "file holding the shared fleet key (preferred over -fleet-key: argv leaks via ps)")
	metricsFile := flag.String("metrics-file", "", "write fleet sync metrics (Prometheus text) here every -sync-every periods, atomically (requires -registry)")
	lanesFile := flag.String("lanes-file", "", "declarative lane config (lanes.json); reloaded live on SIGHUP or POST /v1/reload without restarting or dropping restrictions (cgroup mode only, replaces -sensitive-cgroup/-qos-file/-app)")
	reloadWatch := flag.Bool("reload-watch", false, "poll -lanes-file for mtime/size changes every period and reload automatically")
	adminAddr := flag.String("admin-addr", "", "HTTP admin surface listen address (/healthz, /readyz, /metrics, /v1/events SSE, /v1/reload); empty = disabled")
	eventWindow := flag.Int("event-window", 4096, "per-period events retained per lane; memory is bounded by this times the Event size (~200B), so 4096 ≈ 800KB per lane; -1 retains everything (unbounded memory on long runs)")
	verbose := flag.Bool("v", false, "print every period event")
	flag.Parse()

	// Lanes-file mode: the file is the single source of truth for the
	// protected applications; converting it into the positional lists up
	// front lets validation treat both modes identically.
	var lanesDecl []daemon.LaneDef
	if *lanesFile != "" {
		if len(sensCgroups) > 0 || len(qosFiles) > 0 || len(apps) > 0 {
			return fmt.Errorf("-lanes-file is the declarative twin of -sensitive-cgroup/-qos-file/-app; give one or the other, not both")
		}
		lf, err := daemon.LoadLanes(*lanesFile)
		if err == nil {
			err = lf.Validate(parseList(*batchCgroups))
		}
		if err != nil {
			return fmt.Errorf("-lanes-file: %w", err)
		}
		lanesDecl = lf.Lanes
		for _, d := range lanesDecl {
			sensCgroups = append(sensCgroups, d.SensitiveCgroup)
			qosFiles = append(qosFiles, d.QoSFile)
			apps = append(apps, d.Name())
		}
	}

	sens, err := parsePIDs(*sensitivePIDs)
	if err != nil {
		return fmt.Errorf("-sensitive-pids: %v", err)
	}
	batch, err := parsePIDs(*batchPIDs)
	if err != nil {
		return fmt.Errorf("-batch-pids: %v", err)
	}
	opts := options{
		sensitivePIDs: sens,
		batchPIDs:     batch,
		sensCgroups:   sensCgroups,
		batchCgroups:  parseList(*batchCgroups),
		qosFiles:      qosFiles,
		apps:          apps,
		graded:        *graded,
		memoryHighMB:  *memoryHighMB,
		recoverOnly:   *recoverOnly,
		lanesFile:     *lanesFile,
		reloadWatch:   *reloadWatch,
		eventWindow:   *eventWindow,
	}
	cgroupMode, err := opts.validate()
	if err != nil {
		return err
	}
	if *recoverOnly && *stateDir == "" {
		return fmt.Errorf("-recover-only requires -state-dir (the ledger to replay)")
	}
	if *streamMode && *registryURL == "" {
		return fmt.Errorf("-stream requires -registry (the push stream is the registry's)")
	}
	if *metricsFile != "" && *registryURL == "" {
		return fmt.Errorf("-metrics-file requires -registry (it reports fleet sync state)")
	}
	fleetKeyBytes, err := fleet.ResolveKey(*fleetKey, *fleetKeyFile)
	if err != nil {
		return err
	}

	// The actuator first: recovery replays the ledger against it alone.
	var cfg daemon.Config
	var cgActuator *cgroup.Actuator
	cfs := cgroup.DirFS{Root: *cgroupRoot}
	if cgroupMode {
		cgActuator, err = cgroup.NewActuator(cfs, cgroup.ActuatorConfig{
			MaxCPU:          float64(*cores),
			MemoryHighBytes: int64(opts.memoryHighMB * (1 << 20)),
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "stayawayd: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		cfg.BatchIDs = opts.batchCgroups
		cfg.Actuator = cgActuator
		//lint:stayaway-ignore ledgeredactuation final fail-safe thaw deliberately bypasses the ledger: over-thaw is the safe direction and must work even when the ledger cannot be written
		cfg.Release = func() error { return cgActuator.Resume(opts.batchCgroups) }
		cfg.Watching = fmt.Sprintf("sensitive=%v batch=%v (cgroup mode, root=%s)", opts.sensCgroups, opts.batchCgroups, *cgroupRoot)
	} else {
		// The runtime throttles the logical "batch" VM; the actuator
		// translates that into signals to the concrete PIDs behind it.
		actuator := &throttle.ProcessActuator{}
		batchStrings := make([]string, len(batch))
		for i, pid := range batch {
			batchStrings[i] = strconv.Itoa(pid)
		}
		cfg.BatchIDs = []string{"batch"}
		cfg.Actuator = throttle.FuncActuator{
			//lint:stayaway-ignore ledgeredactuation ID-translation adapter below the ledger: the FuncActuator itself is what gets wrapped in LedgeredActuator
			PauseFn: func([]string) error { return actuator.Pause(batchStrings) },
			//lint:stayaway-ignore ledgeredactuation ID-translation adapter below the ledger: the FuncActuator itself is what gets wrapped in LedgeredActuator
			ResumeFn: func([]string) error { return actuator.Resume(batchStrings) },
		}
		//lint:stayaway-ignore ledgeredactuation final fail-safe thaw deliberately bypasses the ledger: over-thaw is the safe direction and must work even when the ledger cannot be written
		cfg.Release = func() error { return actuator.Resume(batchStrings) }
		cfg.Watching = fmt.Sprintf("sensitive=%v batch=%v (PID mode)", sens, batch)
	}
	if *recoverOnly {
		if _, _, err := daemon.RecoverLedger(*stateDir, cfg.Actuator, cfg.BatchIDs); err != nil {
			return fmt.Errorf("recovery incomplete: %w", err)
		}
		fmt.Println("stayawayd: recovery complete")
		return nil
	}

	cfg.Lanes = compileLanes(opts, lanesDecl)
	var sampler procenv.Sampler
	if cgroupMode {
		// Probe up front so the operator learns at startup — not mid-
		// incident — whether actuation will use cgroup controls or degrade
		// to signals.
		for _, cg := range opts.batchCgroups {
			if err := cgActuator.Probe(cg); err != nil {
				fmt.Fprintf(os.Stderr, "stayawayd: warning: %v; actuation for %q will degrade to SIGSTOP/SIGCONT\n", err, cg)
			}
		}
		var groups []cgroup.Group
		for _, d := range cfg.Lanes.Lanes {
			groups = append(groups, cgroup.Group{Name: cfg.Lanes.Group(d), Path: d.SensitiveCgroup})
			if !cfs.Exists(d.SensitiveCgroup) {
				fmt.Fprintf(os.Stderr, "stayawayd: warning: sensitive cgroup %q not found (yet)\n", d.SensitiveCgroup)
			}
		}
		for _, cg := range opts.batchCgroups {
			groups = append(groups, cgroup.Group{Name: cg, Path: cg})
		}
		if cfg.Groups, err = cgroup.NewCollector(cfs, groups); err != nil {
			return err
		}
		sampler = cfg.Groups
	} else if sampler, err = procenv.NewCollector("/proc", 100, []procenv.Group{
		{Name: cfg.Lanes.Group(cfg.Lanes.Lanes[0]), PIDs: sens},
		{Name: "batch", PIDs: batch},
	}); err != nil {
		return err
	}
	if cfg.Env, err = procenv.NewHostEnv(sampler, cfg.BatchIDs); err != nil {
		return err
	}

	if *registryURL != "" {
		client, err := fleet.NewClient(fleet.ClientConfig{BaseURL: *registryURL, Key: fleetKeyBytes})
		if err != nil {
			return err
		}
		hostName := *hostID
		if hostName == "" {
			if hostName, err = os.Hostname(); err != nil {
				hostName = "unknown-host"
			}
		}
		cfg.Fleet = fleet.NewHostSyncer(client, hostName)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	ticker := time.NewTicker(*period)
	defer ticker.Stop()

	cfg.LanesFile, cfg.ReloadWatch = *lanesFile, *reloadWatch
	cfg.Ranges = metrics.DefaultRanges(*cores, *memoryMB, *diskMBps, 1000)
	cfg.Graded, cfg.EventWindow, cfg.Seed = *graded, *eventWindow, time.Now().UnixNano()
	cfg.Ticks, cfg.Hangup, cfg.Period = ticker.C, hup, *period
	cfg.StateDir, cfg.CheckpointEvery, cfg.WatchdogGrace = *stateDir, *checkpointEvery, *watchdogGrace
	cfg.SyncEvery, cfg.Stream, cfg.MetricsFile = *syncEvery, *streamMode, *metricsFile
	cfg.AdminAddr, cfg.Key = *adminAddr, fleetKeyBytes
	cfg.TemplateOut, cfg.Verbose = *templateOut, *verbose
	return daemon.Run(ctx, cfg)
}
