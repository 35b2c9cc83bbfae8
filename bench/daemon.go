package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/resilience"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/throttle"
)

// daemon-cgroup: the built stayawayd binary, two lanes sharing two batch
// cgroups, on a cgroup tree made of plain files in a temp dir. It is the
// only workload that crosses cmd/stayawayd, internal/daemon, cgroup,
// resilience and the arbiter as shipped. The loop is open: the daemon
// runs on its own ticker, and the harness — playing the host — rewrites
// the accounting and QoS files once per tick on its own.

const (
	daemonWorkload = "daemon-cgroup"
	daemonPeriod   = 10 * time.Millisecond
	daemonRuns     = 3 // K
	// daemonWindow is how many ticks one CPU sample covers: the p50 and
	// p95 are taken over these windows' CPU-per-period.
	daemonWindow = 4
	// The batch script: every daemonCycleTicks ticks the batch jobs spend
	// the last daemonHeavyTicks in a heavy phase (a compaction window).
	// Fixed, not seeded: the share of the run spent in heavy phases is a
	// property of the script, and a seeded length would move every
	// metric with the seed. The seed sets where in the cycle a run starts.
	daemonCycleTicks = 200
	daemonHeavyTicks = 50
	// Deadlines: nothing the harness starts may outlive them.
	buildDeadline = 10 * time.Minute
	stopGrace     = 5 * time.Second
	stallTimeout  = 5 * time.Second
)

var (
	daemonSensitive = []string{"s/web", "s/kv"}
	daemonBatch     = []string{"s/b1", "s/b2"}
	daemonGroups    = append(append([]string(nil), daemonSensitive...), daemonBatch...)
)

// child is one process the harness started. It is always reaped: stop
// is safe to call from a defer, twice, and after the process has gone.
type child struct {
	pid     int
	exited  chan struct{} // closed once Wait has returned
	waitErr error
	timer   *time.Timer
	once    sync.Once
}

// startChild starts the command in its own process group with
// Pdeathsig=SIGKILL, so it cannot outlive the harness even when the
// harness is killed. Pdeathsig fires when the *thread* that forked
// exits, so the fork and the Wait both happen on one goroutine pinned
// to its OS thread for the child's whole life. deadline bounds that
// life whatever else happens.
func startChild(cmd *exec.Cmd, deadline time.Duration) (*child, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	c := &child{exited: make(chan struct{})}
	started := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		// No UnlockOSThread: the thread dies with this goroutine, after
		// Wait has reaped the child.
		if err := cmd.Start(); err != nil {
			started <- err
			return
		}
		c.pid = cmd.Process.Pid
		started <- nil
		c.waitErr = cmd.Wait()
		close(c.exited)
	}()
	if err := <-started; err != nil {
		return nil, err
	}
	c.timer = time.AfterFunc(deadline, func() { c.signal(syscall.SIGKILL) })
	return c, nil
}

// signal sends sig to the child's whole process group.
func (c *child) signal(sig syscall.Signal) {
	select {
	case <-c.exited:
	default:
		_ = syscall.Kill(-c.pid, sig) // ESRCH when it has just gone: nothing to do
	}
}

// stop ends the child: SIGTERM, up to stopGrace for a clean exit, then
// SIGKILL; it returns once Wait has. The returned error is the child's
// exit status.
func (c *child) stop() error {
	c.once.Do(func() {
		c.signal(syscall.SIGTERM)
		select {
		case <-c.exited:
		case <-time.After(stopGrace):
			c.signal(syscall.SIGKILL)
			<-c.exited
		}
		c.timer.Stop()
	})
	<-c.exited
	return c.waitErr
}

// gone reports whether the pid no longer names a process.
func (c *child) gone() bool {
	return errors.Is(syscall.Kill(c.pid, 0), syscall.ESRCH)
}

// lineSink collects a child's output and lets the harness wait for a
// line. exec copies into it from its own goroutine, which Wait joins.
type lineSink struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	lines []string
	woke  chan struct{}
}

func newLineSink() *lineSink { return &lineSink{woke: make(chan struct{}, 1)} }

func (s *lineSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.buf.Write(p)
	for {
		line, err := s.buf.ReadString('\n')
		if err != nil {
			s.buf.Reset()
			s.buf.WriteString(line)
			break
		}
		s.lines = append(s.lines, strings.TrimRight(line, "\n"))
	}
	s.mu.Unlock()
	select {
	case s.woke <- struct{}{}:
	default:
	}
	return len(p), nil
}

func (s *lineSink) snapshot() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.lines...)
}

// waitPrefix blocks until a line with the prefix appears and returns
// what follows it.
func (s *lineSink) waitPrefix(ctx context.Context, prefix string, exited <-chan struct{}, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		for _, l := range s.snapshot() {
			if rest, ok := strings.CutPrefix(l, prefix); ok {
				return strings.TrimSpace(rest), nil
			}
		}
		select {
		case <-s.woke:
		case <-exited:
			return "", fmt.Errorf("daemon exited before printing %q:\n%s", prefix, strings.Join(s.snapshot(), "\n"))
		case <-deadline:
			return "", fmt.Errorf("no %q line within %v", prefix, timeout)
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// buildDaemon builds cmd/stayawayd into the scratch directory — go
// build, never go run, so the process measured is the daemon itself and
// the pid the harness holds is the one to reap.
func buildDaemon(ctx context.Context, env *benchEnv) (string, error) {
	bin := filepath.Join(env.build, "stayawayd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/stayawayd")
	cmd.Dir = env.root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	c, err := startChild(cmd, buildDeadline)
	if err != nil {
		return "", err
	}
	select {
	case <-c.exited:
	case <-ctx.Done():
	}
	if err := c.stop(); err != nil {
		return "", fmt.Errorf("go build ./cmd/stayawayd: %v\n%s", err, out.String())
	}
	return bin, ctx.Err()
}

// fakeHost plays the machine the daemon manages: per tick it advances a
// seeded script and rewrites cpu.stat, memory.current and the QoS files.
// It closes the loop the way a real host would — a frozen batch cgroup
// burns no CPU and stops hurting the sensitive applications.
type fakeHost struct {
	root string
	rng  *rand.Rand

	tick      int
	offset    int                // where in the batch cycle tick 0 falls
	usageUS   map[string]float64 // cumulative cpu.stat usage_usec per cgroup
	lastWrite time.Time
	freezes   int     // ticks on which some batch cgroup was seen frozen
	batchWork float64 // CPU the batch cgroups burned, in core-ticks
}

func newFakeHost(root string, seed int64) (*fakeHost, error) {
	h := &fakeHost{root: root, rng: rand.New(rand.NewSource(seed)), usageUS: map[string]float64{}}
	for _, g := range daemonGroups {
		dir := filepath.Join(root, g)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		for name, content := range map[string]string{
			"cgroup.procs":   "12345\n",
			"cgroup.freeze":  "0\n",
			"cpu.max":        "max 100000\n",
			"memory.high":    "max\n",
			"cpu.stat":       "usage_usec 0\nuser_usec 0\nsystem_usec 0\n",
			"memory.current": "0\n",
			"io.stat":        "",
		} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
				return nil, err
			}
		}
	}
	for _, g := range daemonSensitive {
		if err := os.WriteFile(h.qosPath(g), []byte("0.97 0.9\n"), 0o644); err != nil {
			return nil, err
		}
	}
	h.offset = h.rng.Intn(daemonCycleTicks)
	h.lastWrite = time.Now()
	return h, nil
}

func (h *fakeHost) qosPath(group string) string {
	return filepath.Join(h.root, filepath.Base(group)+".qos")
}

func (h *fakeHost) frozen(group string) bool {
	data, err := os.ReadFile(filepath.Join(h.root, group, "cgroup.freeze"))
	return err == nil && strings.TrimSpace(string(data)) == "1"
}

// step advances the script one tick and rewrites the files.
func (h *fakeHost) step() error {
	now := time.Now()
	dtUS := float64(now.Sub(h.lastWrite)) / float64(time.Microsecond)
	h.lastWrite = now

	running := 0
	for _, g := range daemonBatch {
		if !h.frozen(g) {
			running++
		}
	}
	if running < len(daemonBatch) {
		h.freezes++
	}

	// heavyAge is how far into a heavy phase the batch jobs are, -1
	// outside one.
	heavyAge := (h.tick+h.offset)%daemonCycleTicks - (daemonCycleTicks - daemonHeavyTicks)
	heavy := heavyAge >= 0

	// Sensitive load: a day/night square wave. The script has few
	// distinct states on purpose — the daemon's map saturates during
	// warm-up, so the timed window measures the shipped control path
	// (file I/O, arbiter, ledger, checkpoints, admin surface), which no
	// other workload reaches, and not how long this script takes to learn.
	swing := 0.4
	if (h.tick/60)%2 == 1 {
		swing = 0.7
	}
	rates := map[string]float64{"s/web": swing, "s/kv": 0.4}
	mem := map[string]float64{"s/web": 500 + 400*swing, "s/kv": 900}
	batchCPU, batchMem := 0.3, 300.0
	if heavy {
		batchCPU = 1.4
		batchMem = 1000 + 700*math.Min(2, float64(heavyAge/5))
	}
	for _, g := range daemonBatch {
		rates[g], mem[g] = 0, batchMem
		if !h.frozen(g) {
			rates[g] = batchCPU
			h.batchWork += batchCPU
		}
	}
	for _, g := range daemonGroups {
		r := rates[g]
		h.usageUS[g] += r * dtUS
		stat := fmt.Sprintf("usage_usec %d\nuser_usec %d\nsystem_usec 0\n", int64(h.usageUS[g]), int64(h.usageUS[g]))
		if err := os.WriteFile(filepath.Join(h.root, g, "cpu.stat"), []byte(stat), 0o644); err != nil {
			return err
		}
		jitter := 1 + 0.004*(h.rng.Float64()-0.5)
		cur := strconv.FormatInt(int64(mem[g]*jitter*(1<<20)), 10) + "\n"
		if err := os.WriteFile(filepath.Join(h.root, g, "memory.current"), []byte(cur), 0o644); err != nil {
			return err
		}
	}

	// A heavy batch phase that has ramped for a few running ticks hurts
	// the web tier whenever the batch runs, and the kv tier at the top of
	// the swing.
	hurting := heavyAge >= 5 && running > 0
	for _, g := range daemonSensitive {
		bad := hurting && (g == "s/web" || swing > 0.5)
		report := "0.97 0.9\n"
		if bad {
			report = "0.55 0.9\n"
		}
		if err := os.WriteFile(h.qosPath(g), []byte(report), 0o644); err != nil {
			return err
		}
	}

	h.tick++
	return nil
}

// cpuNS sums on-CPU nanoseconds over the process's threads.
func cpuNS(pid int) (int64, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue // a thread that exited between the glob and the read
		}
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", p, err)
		}
		total += ns
	}
	if len(paths) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", pid)
	}
	return total, nil
}

// vmHWMMB is the process's peak resident set.
func vmHWMMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

var periodsTotalRE = regexp.MustCompile(`(?m)^stayaway_daemon_periods_total\s+([0-9.e+]+)`)

// periodsTotal reads the daemon's own count of completed periods.
func periodsTotal(ctx context.Context, client *http.Client, adminURL string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, adminURL+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	m := periodsTotalRE.FindSubmatch(body)
	if m == nil {
		return 0, nil // no period completed yet: the counter is registered on first use
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	return int(v), err
}

// daemonRun is what one run of the daemon measured.
type daemonRun struct {
	setupS, startToReadyMS, shutdownMS float64
	windowsMS                          []float64 // CPU ms per period, per daemonWindow-tick window
	cpuMSPerPeriod                     float64
	periods, ticks, missed             int
	periodErrors                       int // "stayawayd: period:" lines: Period calls that returned an error
	hwmMB                              float64
	freezes                            int
	batchWork                          float64
	q                                  quality  // pooled over the lanes, timed periods only
	violated                           []string // failed run checks
}

// laneTrack scores one lane's event stream the way predictor.Tracker
// does inside the daemon: each period's verdict against the next
// period's reported outcome.
type laneTrack struct {
	periods, violations, pauses int
	tp, fp, tn, fn              int
	pending, havePending        bool
}

func (t *laneTrack) observe(ev core.Event) {
	t.periods++
	if ev.Violation {
		t.violations++
	}
	if ev.Action == throttle.ActionPause {
		t.pauses++
	}
	if t.havePending {
		switch {
		case t.pending && ev.Violation:
			t.tp++
		case t.pending:
			t.fp++
		case ev.Violation:
			t.fn++
		default:
			t.tn++
		}
	}
	t.pending, t.havePending = ev.Predicted, true
}

// reset drops the counts at the start of the timed window but keeps the
// pending verdict, which is scored against the first timed period.
func (t *laneTrack) reset() {
	*t = laneTrack{pending: t.pending, havePending: t.havePending}
}

// runDaemonOnce starts the daemon on a fresh tree, plays warm+timed
// ticks at it, stops it and checks what it left behind.
func runDaemonOnce(ctx context.Context, env *benchEnv, bin string, seed int64, warm, timed int) (run *daemonRun, err error) {
	dir, err := os.MkdirTemp(env.build, "daemon-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
			err = rmErr
		}
		if _, statErr := os.Stat(dir); statErr == nil && err == nil {
			err = fmt.Errorf("temp dir %s survived removal", dir)
		}
	}()
	host, err := newFakeHost(dir, seed)
	if err != nil {
		return nil, err
	}
	lanes := fmt.Sprintf(`{"version":1,"lanes":[{"app":"web","sensitive_cgroup":"s/web","qos_file":%q},{"app":"kv","sensitive_cgroup":"s/kv","qos_file":%q}]}`,
		host.qosPath("s/web"), host.qosPath("s/kv"))
	lanesPath := filepath.Join(dir, "lanes.json")
	if err := os.WriteFile(lanesPath, []byte(lanes), 0o644); err != nil {
		return nil, err
	}
	stateDir := filepath.Join(dir, "state")

	sink := newLineSink()
	cmd := exec.Command(bin,
		"-lanes-file", lanesPath,
		"-batch-cgroups", strings.Join(daemonBatch, ","),
		"-cgroup-root", dir,
		"-state-dir", stateDir,
		"-period", daemonPeriod.String(),
		"-admin-addr", "127.0.0.1:0",
		// The normalisation ranges are the host's, not the benchmark
		// box's: pin them so the map is the same on any machine.
		"-cores", "4", "-memory-mb", "4096",
	)
	cmd.Stdout, cmd.Stderr = sink, sink
	budget := time.Duration(warm+timed) * daemonPeriod
	t0 := time.Now()
	c, err := startChild(cmd, budget+30*time.Second)
	if err != nil {
		return nil, err
	}
	// Whatever happens below — a failed check, a cancelled context — the
	// child is stopped and waited for before this function returns.
	defer func() {
		_ = c.stop()
		if !c.gone() && err == nil {
			err = fmt.Errorf("daemon pid %d still exists after stop", c.pid)
		}
	}()

	adminURL, err := sink.waitPrefix(ctx, "stayawayd: admin surface on ", c.exited, 10*time.Second)
	if err != nil {
		return nil, err
	}
	// The harness follows the daemon through its event stream: one
	// connection, one period event per lane per period. When both lanes
	// have reported period k the host advances to tick k+1 and rewrites
	// its files, long before the daemon's next tick reads them — so what
	// the daemon observes each period does not depend on how two free
	// tickers happen to be phased.
	streamCtx, cancelStream := context.WithCancel(ctx)
	defer cancelStream()
	req, err := http.NewRequestWithContext(streamCtx, http.MethodGet, adminURL+"/v1/events", nil)
	if err != nil {
		return nil, err
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	// Two events arrive per period; the buffer rides out one slow host
	// step without blocking the decoder mid-block.
	events := make(chan core.Event, 16)
	decoded := make(chan struct{})
	go func() {
		defer close(decoded)
		defer close(events)
		dec := stream.NewDecoder(resp.Body)
		for {
			sev, err := dec.Next()
			if err != nil {
				return // body closed below, or the daemon went away
			}
			if sev.Type != daemon.TypePeriod {
				continue
			}
			var ev core.Event
			if json.Unmarshal(sev.Data, &ev) != nil {
				continue
			}
			select {
			case events <- ev:
			case <-streamCtx.Done():
				return
			}
		}
	}()
	defer func() {
		cancelStream()
		resp.Body.Close()
		<-decoded
	}()

	run = &daemonRun{ticks: timed}
	trackers := map[string]*laneTrack{}
	var cpu0, cpuPrev int64
	var tWarm time.Time
	seen, done := 0, 0
	for done < warm+timed {
		var ev core.Event
		var ok bool
		select {
		case ev, ok = <-events:
			if !ok {
				return nil, fmt.Errorf("event stream ended after %d periods:\n%s", done, strings.Join(sink.snapshot(), "\n"))
			}
		case <-c.exited:
			return nil, fmt.Errorf("daemon exited mid-run: %v\n%s", c.waitErr, strings.Join(sink.snapshot(), "\n"))
		case <-time.After(stallTimeout):
			return nil, fmt.Errorf("no period event for %v after %d periods", stallTimeout, done)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if seen == 0 {
			run.startToReadyMS = float64(time.Since(t0)) / float64(time.Millisecond)
		}
		seen++
		tr := trackers[ev.App]
		if tr == nil {
			tr = &laneTrack{}
			trackers[ev.App] = tr
		}
		tr.observe(ev)
		if seen%len(daemonSensitive) != 0 {
			continue
		}
		done++
		if err := host.step(); err != nil {
			return nil, err
		}
		if done == warm {
			// End of set-up: exec to here. The timed window opens.
			run.setupS = time.Since(t0).Seconds()
			tWarm = time.Now()
			if cpu0, err = cpuNS(c.pid); err != nil {
				return nil, err
			}
			cpuPrev = cpu0
			for _, tr := range trackers {
				tr.reset()
			}
		}
		if done > warm && (done-warm)%daemonWindow == 0 {
			cpu, err := cpuNS(c.pid)
			if err != nil {
				return nil, err
			}
			run.windowsMS = append(run.windowsMS, float64(cpu-cpuPrev)/1e6/daemonWindow)
			cpuPrev = cpu
		}
	}
	elapsed := time.Since(tWarm)
	cpu1, err := cpuNS(c.pid)
	if err != nil {
		return nil, err
	}
	if run.hwmMB, err = vmHWMMB(c.pid); err != nil {
		return nil, err
	}
	counted, err := periodsTotal(ctx, client, adminURL)
	if err != nil {
		return nil, err
	}
	run.periods = timed
	run.cpuMSPerPeriod = float64(cpu1-cpu0) / 1e6 / float64(timed)
	// Open loop: a tick was due every period whether or not the daemon
	// completed one; the shortfall is the ticks it missed.
	run.ticks = int(math.Round(float64(elapsed) / float64(daemonPeriod)))
	if run.ticks < timed {
		run.ticks = timed
	}
	run.missed = run.ticks - timed
	run.freezes = host.freezes
	run.batchWork = host.batchWork / float64(host.tick)

	tStop := time.Now()
	exitErr := c.stop()
	run.shutdownMS = float64(time.Since(tStop)) / float64(time.Millisecond)

	// ---- run checks: what the daemon left behind.
	check := func(ok bool, format string, args ...any) {
		if !ok {
			run.violated = append(run.violated, fmt.Sprintf(format, args...))
		}
	}
	check(exitErr == nil, "daemon exit status: %v", exitErr)
	for _, g := range daemonBatch {
		check(!host.frozen(g), "%s left frozen", g)
		data, _ := os.ReadFile(filepath.Join(dir, g, "cpu.max"))
		check(strings.HasPrefix(strings.TrimSpace(string(data)), "max"), "%s cpu.max left at %q", g, strings.TrimSpace(string(data)))
	}
	ledger, lerr := resilience.OpenLedger(filepath.Join(stateDir, "ledger.json"))
	check(lerr == nil, "ledger unreadable: %v", lerr)
	if lerr == nil {
		check(len(ledger.Outstanding()) == 0, "ledger has %d outstanding entries", len(ledger.Outstanding()))
	}
	check(run.freezes > 0, "no freeze observed")

	for _, l := range sink.snapshot() {
		if strings.HasPrefix(l, "stayawayd: period:") {
			run.periodErrors++
		}
	}
	check(counted >= done, "stayaway_daemon_periods_total says %d periods, the event stream carried %d", counted, done)
	check(len(trackers) == len(daemonSensitive), "events from %d lanes, want %d", len(trackers), len(daemonSensitive))
	for _, tr := range trackers {
		run.q.periods += tr.periods
		run.q.violations += tr.violations
		run.q.pauses += tr.pauses
		run.q.tp, run.q.fp, run.q.tn, run.q.fn = run.q.tp+tr.tp, run.q.fp+tr.fp, run.q.tn+tr.tn, run.q.fn+tr.fn
	}
	if len(run.violated) > 0 {
		run.violated = append(run.violated, "daemon output:\n"+strings.Join(sink.snapshot(), "\n"))
	}
	return run, nil
}

// runDaemonWorkload is K runs of the daemon. The runs are not same-bits
// — stayawayd seeds its lanes from the wall clock — so nothing is folded
// per index: windows are pooled, and the mean is the cheapest run's.
func runDaemonWorkload(ctx context.Context, env *benchEnv, seed int64, seconds int, traced bool) (*result, []string, error) {
	bin, err := buildDaemon(ctx, env)
	if err != nil {
		return nil, nil, err
	}
	// Each run measures for 0.4 × seconds — K of them a little over
	// seconds in all — after a warm-up of one batch cycle, long enough for
	// the script's few states to have been seen.
	timed := seconds * int(time.Second/daemonPeriod) * 2 / 5
	warm := daemonCycleTicks
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var notes []string
	var runs []*daemonRun
	for k := 0; k < daemonRuns; k++ {
		r, err := runDaemonOnce(ctx, env, bin, subSeed(seed, k), warm, timed)
		if err != nil {
			return nil, nil, fmt.Errorf("run %d: %w", k, err)
		}
		for _, v := range r.violated {
			res.Correct = false
			notes = append(notes, fmt.Sprintf("FAILED CHECK (run %d): %s", k, v))
		}
		runs = append(runs, r)
		res.Attempted += r.periods
		res.Failed += r.periodErrors
	}

	var windows, setups, means, hwms, work, ready, shut []float64
	var q quality
	missed, due, freezes, pauses := 0, 0, 0, 0
	for _, r := range runs {
		due += r.ticks
		windows = append(windows, r.windowsMS...)
		setups = append(setups, r.setupS)
		means = append(means, r.cpuMSPerPeriod)
		hwms = append(hwms, r.hwmMB)
		work = append(work, r.batchWork)
		q.periods += r.q.periods
		q.violations += r.q.violations
		q.tp, q.fp, q.tn, q.fn = q.tp+r.q.tp, q.fp+r.q.fp, q.tn+r.q.tn, q.fn+r.q.fn
		ready = append(ready, r.startToReadyMS)
		shut = append(shut, r.shutdownMS)
		missed += r.missed
		freezes += r.freezes
		pauses += r.q.pauses
	}
	sorted := sortedCopy(windows)
	tail := tailPercentile(len(sorted))
	lo, hi := means[0], means[0]
	for _, m := range means {
		lo, hi = math.Min(lo, m), math.Max(hi, m)
	}
	notes = append(notes,
		fmt.Sprintf("%d runs × (%d warm-up + %d timed) ticks of %v; %d CPU windows of %d ticks; p%d = %.5g ms", daemonRuns, warm, timed, daemonPeriod, len(windows), daemonWindow, tail, percentile(sorted, tail)),
		fmt.Sprintf("CPU ms/period per run %v (not speed-normalised: a kernel timed here does not track the child); %d ticks missed; %d pauses; %d ticks with a frozen batch cgroup",
			fmtAll(means), missed, pauses, freezes),
		fmt.Sprintf("behaviour (cost only is reported: the daemon seeds its lanes from the wall clock, so these do not repeat): QoS violation rate %.4f, batch work %.3f cores, tp=%d fp=%d fn=%d",
			q.violationRate(), stats.Mean(work), q.tp, q.fp, q.fn),
	)
	if !traced {
		values := map[string]float64{
			"setup_s":        median(setups),
			"period_ms_p50":  percentile(sorted, 50),
			"period_ms_mean": lo,
			"mem_mb":         median(hwms),
		}
		// The end-to-end metrics the daemon can report; see README.md for
		// why it is measured but is not one of BENCHMARK.json's workloads.
		for name, v := range values {
			res.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
		}
		return res, notes, nil
	}
	l := newLayerStats()
	l.set("core.period_ms_p95", percentile(sorted, tail))
	l.set("daemon.start_to_ready_ms", median(ready))
	l.set("daemon.shutdown_ms", median(shut))
	l.set("daemon.ticks_missed", float64(missed))
	l.set("daemon.freezes_observed", float64(freezes))
	l.set("daemon.cpu_ms_per_period_max", hi)
	l.set("daemon.over_budget_share", ratio(float64(missed), float64(due)))
	l.set("core.periods", float64(q.periods))
	l.set("throttle.pauses", float64(pauses))
	l.set("throttle.qos_violation_rate", q.violationRate())
	l.set("throttle.batch_work", stats.Mean(work))
	l.set("predictor.precision", q.precision())
	l.set("predictor.recall", q.recall())
	l.set("predictor.tp", float64(q.tp))
	l.set("predictor.fp", float64(q.fp))
	l.set("predictor.fn", float64(q.fn))
	l.set("predictor.tn", float64(q.tn))
	l.set("harness.rep_spread", ratio(hi, lo))
	if err := runStandaloneProbes(env, seed, l); err != nil {
		return nil, nil, err
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: l.value(m.name), Unit: m.unit}
	}
	return res, notes, nil
}
