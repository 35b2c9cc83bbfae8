package daemon

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/statespace"
)

// The fleet side of each lane's life: a syncer born with the lane, seeded
// and following like a startup lane, stopped and forgotten with it.

// reload rewrites the lanes file to lanes and queues it; the next tick's
// period applies it.
func (r *running) reload(t *testing.T, path string, lanes ...LaneDef) {
	t.Helper()
	data, err := json.Marshal(LanesFile{Version: LanesVersion, Lanes: lanes})
	if err != nil {
		t.Fatal(err)
	}
	writeLanes(t, path, string(data))
	if err := r.l.reloader.Queue(); err != nil {
		t.Fatal(err)
	}
}

// captureStderr sends os.Stderr to a file until the test ends and returns
// a reader of what was written. Call it before start: the loop goroutine
// must not exist while the variable is swapped.
func captureStderr(t *testing.T) func() string { return capture(t, &os.Stderr) }

// capture is captureStderr for any of the standard streams.
func capture(t *testing.T, stream **os.File) func() string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "capture")
	if err != nil {
		t.Fatal(err)
	}
	saved := *stream
	*stream = f
	t.Cleanup(func() {
		*stream = saved
		f.Close()
	})
	return func() string {
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
}

// laneHealth returns the board's view of app's lane.
func laneHealth(t *testing.T, r *running, app string) (states, violationStates int) {
	t.Helper()
	for _, lh := range r.l.board.Snapshot().Lanes {
		if lh.App == app {
			return lh.States, lh.ViolationStates
		}
	}
	t.Fatalf("no lane %s on the board", app)
	return 0, 0
}

// A lane added by hot reload is seeded like a startup lane — here from the
// fleet, since it has no checkpoint — and in -stream mode follows the
// stream from then on.
func TestReloadAddedLaneBootstrapsAndStreams(t *testing.T) {
	ts, _, _ := registryFixture(t)
	learn(t, ts.URL, "kv", "s/kv", 2048) // kv revision 1
	f := newFixture(t, false, healthy, "vlc", "kv")
	all := f.cfg.Lanes.Lanes
	f.cfg.Lanes.Lanes = all[:1]
	f.cfg.LanesFile = filepath.Join(f.dir, "lanes.json")
	f.cfg.Stream = true
	f.useFleet(t, ts.URL, "host-b", nil)
	r := f.start(t, context.Background())
	r.tick(2)
	r.reload(t, f.cfg.LanesFile, all...)
	r.tick(2) // the add, and one period of the new lane
	// kv's own QoS is healthy: violation states can only come from the fleet.
	if _, viol := laneHealth(t, r, "kv"); viol == 0 {
		t.Fatal("the added kv lane holds no violation state: it was not bootstrapped from the fleet")
	}
	kv := r.l.lanes[1].syncer
	waitFor(t, "the added lane's stream", func() bool { return kv.Stats().Streaming })
	before, _ := laneHealth(t, r, "kv")
	learn(t, ts.URL, "kv", "s/kv", 512) // kv revision 2, new states
	waitFor(t, "the streamed delta", func() bool { return kv.Stats().Events == 1 })
	r.tick(2)
	if after, _ := laneHealth(t, r, "kv"); after <= before {
		t.Errorf("kv map has %d states after the boundary, want more than %d", after, before)
	}
	if err := r.stop(); err != nil {
		t.Fatal(err)
	}
	if ln := r.l.lanes[1]; ln.merges != 1 || kv.Stats().Applied != 2 {
		t.Errorf("kv merged %d deltas up to revision %d, want one up to 2", ln.merges, kv.Stats().Applied)
	}
}

// A lane removed by hot reload takes its syncer with it: its stream
// closes at once, and neither -metrics-file nor the exit report mentions
// it again.
func TestReloadRemovedLaneStopsSyncing(t *testing.T) {
	ts, _, hub := registryFixture(t)
	gate := &gatedTransport{}
	f := newFixture(t, false, violating, "vlc", "kv")
	f.cfg.LanesFile = filepath.Join(f.dir, "lanes.json")
	f.cfg.Stream = true
	f.cfg.MetricsFile = filepath.Join(f.dir, "fleet.prom")
	f.useFleet(t, ts.URL, "host-a", gate)
	stderr := captureStderr(t)
	r := f.start(t, context.Background())
	waitFor(t, "both streams", func() bool { return hub.Stats().Active == 2 })
	r.tick(3)
	// The departing push fails: kv leaves degraded.
	gate.setDown(true)
	r.reload(t, f.cfg.LanesFile, f.cfg.Lanes.Lanes[0])
	r.tick(2)
	gate.setDown(false)
	waitFor(t, "kv's stream to close", func() bool { return hub.Stats().Active == 1 })
	if err := r.stop(); err != nil {
		t.Fatal(err)
	}
	prom, err := os.ReadFile(f.cfg.MetricsFile)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(prom), `app="kv"`) || !strings.Contains(string(prom), `app="vlc"`) {
		t.Errorf("metrics file after removing kv:\n%s", prom)
	}
	if out := stderr(); !strings.Contains(out, "kv: departing push") || strings.Contains(out, "kv: exiting out of sync") {
		t.Errorf("stderr reports the removed lane at exit:\n%s", out)
	}
}

// A reconfigure that carries the lane's map keeps its syncer and stream
// cursor.
func TestReloadCarriedReconfigureKeepsCursor(t *testing.T) {
	ts, _, _ := registryFixture(t)
	f := newFixture(t, false, healthy, "vlc")
	f.cfg.LanesFile = filepath.Join(f.dir, "lanes.json")
	f.cfg.Stream = true
	f.useFleet(t, ts.URL, "host-b", nil)
	r := f.start(t, context.Background())
	ss := r.l.lanes[0].syncer
	waitFor(t, "the stream", func() bool { return ss.Stats().Streaming })
	learn(t, ts.URL, "vlc", "s/vlc", 2048) // vlc revision 1
	waitFor(t, "the streamed delta", func() bool { return ss.Stats().Events == 1 })
	r.tick(2)
	if got := ss.Stats().Applied; got != 1 {
		t.Fatalf("applied revision = %d before the reconfigure, want 1", got)
	}
	d := f.cfg.Lanes.Lanes[0]
	d.QoSFile = filepath.Join(f.dir, "vlc-next.qos")
	if err := os.WriteFile(d.QoSFile, []byte(healthy), 0o644); err != nil {
		t.Fatal(err)
	}
	r.reload(t, f.cfg.LanesFile, d)
	r.tick(2)
	if r.l.lanes[0].syncer != ss || ss.Stats().Applied != 1 || !ss.Stats().Streaming {
		t.Errorf("carried reconfigure: same syncer %v, applied %d, streaming %v; want the same one at 1, streaming",
			r.l.lanes[0].syncer == ss, ss.Stats().Applied, ss.Stats().Streaming)
	}
}

// A reconfigure that cannot carry the lane's map (here: the lane has not
// run yet, so it has none) starts cold and reflects no fleet revision, so
// it gets a fresh syncer that bootstraps it.
func TestReloadColdReconfigureBootstraps(t *testing.T) {
	ts, _, _ := registryFixture(t)
	f := newFixture(t, false, healthy, "vlc")
	f.cfg.LanesFile = filepath.Join(f.dir, "lanes.json")
	f.useFleet(t, ts.URL, "host-b", nil)
	r := f.start(t, context.Background()) // registry empty: vlc starts cold
	old := r.l.lanes[0].syncer
	learn(t, ts.URL, "vlc", "s/vlc", 2048) // vlc revision 1
	d := f.cfg.Lanes.Lanes[0]
	d.QoSFile = filepath.Join(f.dir, "vlc-next.qos")
	if err := os.WriteFile(d.QoSFile, []byte(healthy), 0o644); err != nil {
		t.Fatal(err)
	}
	r.reload(t, f.cfg.LanesFile, d)
	r.tick(2) // the reconfigure, before the lane's first period
	// vlc's own QoS is healthy: violation states can only come from the fleet.
	if _, viol := laneHealth(t, r, "vlc"); viol == 0 {
		t.Error("the cold lane holds no violation state: it was not bootstrapped from the fleet")
	}
	if err := r.stop(); err != nil {
		t.Fatal(err)
	}
	if fresh := r.l.lanes[0].syncer; fresh == old || fresh.Stats().Applied != 1 {
		t.Errorf("cold reconfigure: fresh syncer %v at revision %d; want a fresh one at 1",
			fresh != old, fresh.Stats().Applied)
	}
}

// metricsGolden is -metrics-file for lane vlc, pushed once and not
// following, and lane kv, following a stream that delivered one delta.
const metricsGolden = `# HELP stayaway_host_sync_pushes_total Successful sync operations.
# TYPE stayaway_host_sync_pushes_total counter
stayaway_host_sync_pushes_total{app="kv"} 0
stayaway_host_sync_pushes_total{app="vlc"} 1
# HELP stayaway_host_sync_failures_total Failed sync operations.
# TYPE stayaway_host_sync_failures_total counter
stayaway_host_sync_failures_total{app="kv"} 0
stayaway_host_sync_failures_total{app="vlc"} 0
# HELP stayaway_host_sync_degraded 1 while the lane protects from a stale local map.
# TYPE stayaway_host_sync_degraded gauge
stayaway_host_sync_degraded{app="kv"} 0
stayaway_host_sync_degraded{app="vlc"} 0
# HELP stayaway_host_template_revision Registry revision the lane last synced.
# TYPE stayaway_host_template_revision gauge
stayaway_host_template_revision{app="kv"} 0
stayaway_host_template_revision{app="vlc"} 1
# HELP stayaway_host_stream_live 1 while the push stream is connected.
# TYPE stayaway_host_stream_live gauge
stayaway_host_stream_live{app="kv"} 1
# HELP stayaway_host_stream_events_total Delta events accepted from the stream.
# TYPE stayaway_host_stream_events_total counter
stayaway_host_stream_events_total{app="kv"} 1
# HELP stayaway_host_stream_reconnects_total Stream reconnect attempts.
# TYPE stayaway_host_stream_reconnects_total counter
stayaway_host_stream_reconnects_total{app="kv"} 0
# HELP stayaway_host_stream_resets_total Server resets (lost resume position).
# TYPE stayaway_host_stream_resets_total counter
stayaway_host_stream_resets_total{app="kv"} 0
# HELP stayaway_host_stream_polls_total Fallback delta polls.
# TYPE stayaway_host_stream_polls_total counter
stayaway_host_stream_polls_total{app="kv"} 0
`

// tinyTemplate is a one-state map for app.
func tinyTemplate(app string) *statespace.Template {
	return &statespace.Template{
		Version: 2, SensitiveApp: app, Dim: 1,
		SchemaVMs:     []string{"sensitive"},
		SchemaMetrics: []metrics.Metric{metrics.MetricCPU},
		States:        []statespace.TemplateState{{Vector: []float64{0.5}, Label: statespace.Safe.String(), Weight: 1}},
		Ranges:        metrics.DefaultRanges(4, 4096, 200, 1000),
	}
}

// The -metrics-file series names, help text, labels and order are those
// the host syncer wrote when lanes and streams were separate types.
func TestRunMetricsFileGolden(t *testing.T) {
	ts, reg, _ := registryFixture(t)
	f := newFixture(t, false, healthy)
	f.useFleet(t, ts.URL, "host-a", nil)
	f.cfg.Stream = true
	f.cfg.MetricsFile = filepath.Join(f.dir, "fleet.prom")
	l := &loop{cfg: f.cfg}
	vlc := &lane{app: "vlc", syncer: l.newSyncer("vlc")}
	kv := &lane{app: "kv", syncer: l.newSyncer("kv")}
	l.lanes = []*lane{vlc, kv}
	if err := vlc.syncer.PushTemplate(tinyTemplate("vlc")); err != nil {
		t.Fatal(err)
	}
	l.follow(kv)
	defer kv.stopFollowing()
	waitFor(t, "kv's stream", func() bool { return kv.syncer.Stats().Streaming })
	if _, err := reg.Put("host-b", tinyTemplate("kv")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "kv's delta", func() bool { return kv.syncer.TakeUpdate() != nil })
	kv.syncer.MarkApplied(1)
	l.writeMetrics()
	got, err := os.ReadFile(f.cfg.MetricsFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != metricsGolden {
		t.Errorf("metrics file:\n%s\nwant:\n%s", got, metricsGolden)
	}
}
