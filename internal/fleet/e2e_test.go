// The end-to-end acceptance scenarios live in an external test package:
// they drive the simulated substrate through internal/experiments, which
// itself links against fleet (for the convergence harness), so an
// in-package test would be an import cycle.
package fleet_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/registry"
	"repro/internal/sim"
)

// newE2EServer and newE2EClient mirror the in-package test fixtures using
// only the exported API (this package cannot reach them).
func newE2EServer(t *testing.T) *httptest.Server {
	t.Helper()
	reg, err := registry.Open(registry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fleet.NewServer(fleet.ServerConfig{Registry: reg, Now: func() time.Time { return time.Unix(1700000000, 0) }})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func newE2EClient(t *testing.T, baseURL string) *fleet.Client {
	t.Helper()
	c, err := fleet.NewClient(fleet.ClientConfig{
		BaseURL: baseURL,
		Retry:   fleet.RetryConfig{Attempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The acceptance scenario for the fleet control plane: host A learns a
// state-space map against CPUBomb and pushes it to the registry; host B —
// a different machine running the same sensitive application against a
// co-runner A never saw (Soplex) — pulls the map and skips the
// learning-phase QoS violations a cold start would have suffered. This is
// the paper's Fig 17→18 template story, across hosts instead of across
// runs.
func TestE2ETemplateSharedAcrossHosts(t *testing.T) {
	ts := newE2EServer(t)
	ctx := context.Background()

	vlc := func(rng *rand.Rand) sim.QoSApp {
		return apps.NewVLCStream(apps.DefaultVLCStreamConfig(), rng)
	}
	soplex := func(rng *rand.Rand) sim.App {
		cfg := apps.DefaultSoplexConfig()
		cfg.TotalWork = 0
		return apps.NewSoplex(cfg, rng)
	}

	// Host A: learn against CPUBomb with Stay-Away active, then push.
	learn, err := experiments.Run(experiments.Scenario{
		Name:        "fleet-host-a-learn",
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
		t.Fatal(err)
	}
	clientA := newE2EClient(t, ts.URL)
	pushed, err := clientA.PushTemplate(ctx, "host-a", "vlc-stream",
		learn.Runtime.ExportTemplate("vlc-stream"))
	if err != nil {
		t.Fatal(err)
	}
	if pushed.Revision != 1 || pushed.ViolationStates == 0 {
		t.Fatalf("host A push = %+v; need violation states to share", pushed)
	}

	// Host B: pull the consensus map — no template learned locally.
	clientB := newE2EClient(t, ts.URL)
	tpl, rev, err := clientB.PullTemplate(ctx, "vlc-stream", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rev != pushed.Revision || len(tpl.States) == 0 {
		t.Fatalf("host B pulled rev=%d states=%d", rev, len(tpl.States))
	}

	// Host B runs VLC against Soplex twice: cold (no template) and
	// bootstrapped from the registry. Identical seeds, identical
	// co-location; only the starting map differs.
	run := func(name string, seeded bool) *experiments.RunResult {
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
		res, err := experiments.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run("fleet-host-b-cold", false)
	seeded := run("fleet-host-b-seeded", true)

	firstThrottle := func(res *experiments.RunResult) int {
		for _, r := range res.Records {
			if r.Throttled {
				return r.Tick
			}
		}
		return len(res.Records)
	}
	// Learning-phase window: from batch arrival until the cold run first
	// learned to throttle, plus slack — the ticks where the cold host is
	// still paying for knowledge the fleet already has.
	coldStart, seededStart := firstThrottle(cold), firstThrottle(seeded)
	if seededStart > coldStart {
		t.Errorf("bootstrapped host engaged protection at tick %d, cold at %d — template gave no head start",
			seededStart, coldStart)
	}
	window := coldStart + 20
	countViolationsUpTo := func(res *experiments.RunResult, tick int) int {
		n := 0
		for _, r := range res.Records {
			if r.Tick <= tick && r.Violation {
				n++
			}
		}
		return n
	}
	coldV, seededV := countViolationsUpTo(cold, window), countViolationsUpTo(seeded, window)
	t.Logf("first throttle: cold %d seeded %d; violations ≤ tick %d: cold %d seeded %d; full run: cold %d seeded %d",
		coldStart, seededStart, window, coldV, seededV, cold.Report.Violations, seeded.Report.Violations)
	if seededV > coldV {
		t.Errorf("learning-phase violations: seeded %d > cold %d — sharing the map made things worse",
			seededV, coldV)
	}

	// Host B's own learning flows back: its push merges into revision 2
	// and the consensus accumulates both hosts' contributions.
	resp, err := clientB.PushTemplate(ctx, "host-b", "vlc-stream",
		seeded.Runtime.ExportTemplate("vlc-stream"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Revision != 2 || resp.Hosts != 2 {
		t.Errorf("host B merge = %+v, want revision 2 from 2 hosts", resp)
	}
	status, err := clientB.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(status.Templates) != 1 || status.Templates[0].Hosts != 2 {
		t.Errorf("status templates = %+v", status.Templates)
	}
}
