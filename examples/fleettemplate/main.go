// Fleet template sharing example (§6 across hosts): two simulated hosts
// run the same sensitive application against different batch co-runners,
// connected through the template registry control plane.
//
// Host A learns a state-space map against CPUBomb and pushes it to the
// registry. Host B — starting later, against Soplex, a co-runner the map
// has never seen — pulls the consensus at startup and engages protection
// earlier than a cold start, with fewer learning-phase QoS violations.
// The example finishes by simulating a registry outage: the syncer
// degrades gracefully and resyncs once the registry returns.
//
// Everything runs in-process over an httptest server — no real network.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"

	"repro/internal/apps"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/registry"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fleettemplate:", err)
		os.Exit(1)
	}
}

func vlc(rng *rand.Rand) sim.QoSApp {
	return apps.NewVLCStream(apps.DefaultVLCStreamConfig(), rng)
}

// outage is an http.RoundTripper with an off switch — the "network cable"
// between a host and the registry.
type outage struct {
	down  bool
	inner http.RoundTripper
}

func (o *outage) RoundTrip(req *http.Request) (*http.Response, error) {
	if o.down {
		return nil, fmt.Errorf("registry unreachable (simulated outage)")
	}
	return o.inner.RoundTrip(req)
}

func run() error {
	// The control plane: in-memory registry behind the fleet HTTP API.
	reg, err := registry.Open(registry.Config{})
	if err != nil {
		return err
	}
	srv, err := fleet.NewServer(fleet.ServerConfig{Registry: reg})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("registry listening on %s\n\n", ts.URL)

	// Host A: learn against CPUBomb with Stay-Away active, push the map.
	hostA, err := fleet.NewClient(fleet.ClientConfig{BaseURL: ts.URL})
	if err != nil {
		return err
	}
	learn, err := experiments.Run(experiments.Scenario{
		Name:        "host-a-learn",
		SensitiveID: "vlc",
		Sensitive:   vlc,
		Batch: []experiments.Placement{{ID: "batch", StartTick: 20, App: func(*rand.Rand) sim.App {
			return apps.NewCPUBomb(apps.DefaultCPUBombConfig())
		}}},
		Ticks:    250,
		Seed:     42,
		StayAway: true,
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	pushed, err := hostA.PushTemplate(ctx, "host-a", "vlc-stream",
		learn.Runtime.ExportTemplate("vlc-stream"))
	if err != nil {
		return err
	}
	fmt.Printf("host A learned vs CPUBomb and pushed: revision %d, %d states (%d violation)\n\n",
		pushed.Revision, pushed.States, pushed.ViolationStates)

	// Host B: pull the consensus, then face Soplex — a co-runner host A
	// never saw — seeded vs cold with identical randomness.
	hostB, err := fleet.NewClient(fleet.ClientConfig{BaseURL: ts.URL})
	if err != nil {
		return err
	}
	tpl, rev, err := hostB.PullTemplate(ctx, "vlc-stream", "", 0)
	if err != nil {
		return err
	}
	fmt.Printf("host B pulled revision %d (%d states)\n", rev, len(tpl.States))

	soplex := func(rng *rand.Rand) sim.App {
		cfg := apps.DefaultSoplexConfig()
		cfg.TotalWork = 0
		return apps.NewSoplex(cfg, rng)
	}
	hostBRun := func(name string, seeded bool) (*experiments.RunResult, error) {
		sc := experiments.Scenario{
			Name:        name,
			SensitiveID: "vlc",
			Sensitive:   vlc,
			Batch:       []experiments.Placement{{ID: "batch", StartTick: 20, App: soplex}},
			Ticks:       250,
			Seed:        43,
			StayAway:    true,
		}
		if seeded {
			sc.Template = tpl
		}
		return experiments.Run(sc)
	}
	cold, err := hostBRun("host-b-cold", false)
	if err != nil {
		return err
	}
	seeded, err := hostBRun("host-b-seeded", true)
	if err != nil {
		return err
	}
	firstThrottle := func(res *experiments.RunResult) int {
		for _, r := range res.Records {
			if r.Throttled {
				return r.Tick
			}
		}
		return -1
	}
	fmt.Printf("\nhost B vs Soplex (batch arrives at tick 20):\n")
	fmt.Printf("  cold start:    first throttle at tick %d, %d violations\n",
		firstThrottle(cold), cold.Report.Violations)
	fmt.Printf("  fleet-seeded:  first throttle at tick %d, %d violations\n",
		firstThrottle(seeded), seeded.Report.Violations)

	// Host B contributes its own learning back to the consensus.
	merged, err := hostB.PushTemplate(ctx, "host-b", "vlc-stream",
		seeded.Runtime.ExportTemplate("vlc-stream"))
	if err != nil {
		return err
	}
	fmt.Printf("\nhost B pushed back: revision %d, %d states from %d hosts\n",
		merged.Revision, merged.States, merged.Hosts)

	// Degraded mode: the registry drops off the network mid-operation.
	cable := &outage{inner: http.DefaultTransport}
	flaky, err := fleet.NewClient(fleet.ClientConfig{BaseURL: ts.URL, Transport: cable})
	if err != nil {
		return err
	}
	syncer := fleet.NewSyncer(flaky, "host-b", "vlc-stream")
	cable.down = true
	if err := syncer.PushTemplate(seeded.Runtime.ExportTemplate("vlc-stream")); err != nil {
		st := syncer.Stats()
		fmt.Printf("\nregistry outage: push failed (%v), degraded=%v — host keeps its local map\n",
			st.Err, st.Err != nil)
	}
	cable.down = false
	if err := syncer.PushTemplate(seeded.Runtime.ExportTemplate("vlc-stream")); err != nil {
		return err
	}
	st := syncer.Stats()
	fmt.Printf("registry back: resync succeeded (revision %d), degraded=%v\n",
		st.Revision, st.Err != nil)
	return nil
}
