package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/throttle"
)

func vlcFactory(rng *rand.Rand) sim.QoSApp {
	return apps.NewVLCStream(apps.DefaultVLCStreamConfig(), rng)
}

func bombFactory(rng *rand.Rand) sim.App {
	return apps.NewCPUBomb(apps.DefaultCPUBombConfig())
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Scenario{Ticks: 0}); err == nil {
		t.Error("zero ticks should error")
	}
	if _, err := Run(Scenario{Ticks: 10, Sensitive: vlcFactory}); err == nil {
		t.Error("sensitive app without ID should error")
	}
	if _, err := Run(Scenario{Ticks: 10, StayAway: true}); err == nil {
		t.Error("Stay-Away without sensitive app should error")
	}
	if _, err := Run(Scenario{Ticks: 10, Batch: []Placement{{ID: "x"}}}); err == nil {
		t.Error("placement without app factory should error")
	}
	if _, err := Run(Scenario{Ticks: 10, Batch: []Placement{{App: bombFactory}}}); err == nil {
		t.Error("placement without ID should error")
	}
}

func TestRunBaselineWithoutStayAway(t *testing.T) {
	res, err := Run(Scenario{
		Name:        "baseline",
		SensitiveID: "vlc",
		Sensitive:   vlcFactory,
		Batch:       []Placement{{ID: "bomb", StartTick: 10, App: bombFactory}},
		Ticks:       60,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 60 {
		t.Fatalf("records = %d", len(res.Records))
	}
	// Before the bomb starts, QoS is perfect; after, it collapses.
	if res.Records[5].Violation {
		t.Error("violation before the bomb exists")
	}
	vs := Violations(res.Records[15:])
	if vs.Rate < 0.9 {
		t.Errorf("post-bomb violation rate = %v, want near 1 without prevention", vs.Rate)
	}
	if res.Runtime != nil || res.Events != nil {
		t.Error("no runtime expected without Stay-Away")
	}
	if res.BatchWork <= 0 {
		t.Error("batch work should accumulate")
	}
}

func TestRunStayAwayImprovesQoS(t *testing.T) {
	base := Scenario{
		SensitiveID: "vlc",
		Sensitive:   vlcFactory,
		Batch:       []Placement{{ID: "bomb", StartTick: 10, App: bombFactory}},
		Ticks:       150,
		Seed:        3,
	}
	noPrev, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withSA := base
	withSA.StayAway = true
	sa, err := Run(withSA)
	if err != nil {
		t.Fatal(err)
	}
	if Violations(sa.Records).Rate >= Violations(noPrev.Records).Rate {
		t.Errorf("Stay-Away violation rate %v should beat unprotected %v",
			Violations(sa.Records).Rate, Violations(noPrev.Records).Rate)
	}
	if sa.Report.Pauses == 0 {
		t.Error("Stay-Away never paused the bomb")
	}
	// Records carry runtime decisions.
	var sawThrottle bool
	for _, r := range sa.Records {
		if r.Throttled {
			sawThrottle = true
		}
	}
	if !sawThrottle {
		t.Error("no throttled ticks recorded")
	}
}

func TestRunDeterministic(t *testing.T) {
	sc := Scenario{
		SensitiveID: "vlc",
		Sensitive:   vlcFactory,
		Batch:       []Placement{{ID: "bomb", StartTick: 5, App: bombFactory}},
		Ticks:       80,
		Seed:        9,
		StayAway:    true,
	}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("records diverge at %d:\n%+v\n%+v", i, a.Records[i], b.Records[i])
		}
	}
}

// A run longer than any retention window still reports every period:
// Result.Events is collected from each period's return, not read back
// from the runtime.
func TestRunKeepsEveryEvent(t *testing.T) {
	const ticks = 5000
	res, err := Run(Scenario{
		SensitiveID: "vlc",
		Sensitive:   vlcFactory,
		Batch:       []Placement{{ID: "bomb", StartTick: 5, App: bombFactory}},
		Ticks:       ticks,
		Seed:        9,
		StayAway:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != ticks {
		t.Fatalf("%d events for %d periods", len(res.Events), ticks)
	}
	for i, ev := range res.Events {
		if ev.Period != i {
			t.Fatalf("event %d is period %d", i, ev.Period)
		}
	}
}

func TestRunDelayedStarts(t *testing.T) {
	res, err := Run(Scenario{
		SensitiveID:    "vlc",
		Sensitive:      vlcFactory,
		SensitiveStart: 10,
		Batch:          []Placement{{ID: "bomb", StartTick: 20, App: bombFactory}},
		Ticks:          30,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records[5].SensitiveRunning {
		t.Error("sensitive running before its start tick")
	}
	if !res.Records[12].SensitiveRunning {
		t.Error("sensitive not running after start")
	}
	if res.Records[15].BatchRunning {
		t.Error("batch running before its start tick")
	}
	if !res.Records[25].BatchRunning {
		t.Error("batch not running after start")
	}
}

func TestRunHookInvoked(t *testing.T) {
	var ticks []int
	_, err := Run(Scenario{
		SensitiveID: "vlc",
		Sensitive:   vlcFactory,
		Ticks:       5,
		Seed:        1,
		Hook:        func(tick int) { ticks = append(ticks, tick) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 5 || ticks[0] != 0 || ticks[4] != 4 {
		t.Errorf("hook ticks = %v", ticks)
	}
}

func TestSimEnvironment(t *testing.T) {
	s, err := sim.NewSimulator(sim.DefaultHostConfig())
	if err != nil {
		t.Fatal(err)
	}
	vlc := apps.NewVLCStream(apps.DefaultVLCStreamConfig(), rand.New(rand.NewSource(1)))
	if _, err := s.AddContainer("vlc", vlc); err != nil {
		t.Fatal(err)
	}
	env := NewSimEnvironment(s, "vlc", []string{"bomb"}, vlc)

	// Batch container does not exist yet.
	if env.BatchRunning() || env.BatchActive() {
		t.Error("absent batch should not be running/active")
	}
	if !env.SensitiveRunning() {
		t.Error("sensitive should be running")
	}
	s.Step()
	if env.QoSViolation() {
		t.Error("isolated VLC should not violate")
	}
	if got := env.Collect(); len(got) != 1 || got[0].VM != "vlc" {
		t.Errorf("collect = %v", got)
	}

	if _, err := s.AddContainer("bomb", apps.NewCPUBomb(apps.DefaultCPUBombConfig())); err != nil {
		t.Fatal(err)
	}
	s.Step()
	if !env.BatchRunning() || !env.BatchActive() {
		t.Error("batch should be running")
	}
	if !env.QoSViolation() {
		t.Error("bomb co-location should violate VLC")
	}
	// Frozen batch: active but not running; QoS recovers.
	if err := s.Freeze("bomb"); err != nil {
		t.Fatal(err)
	}
	s.Step()
	if env.BatchRunning() {
		t.Error("frozen batch must not count as running")
	}
	if !env.BatchActive() {
		t.Error("frozen batch still has work")
	}
	if env.QoSViolation() {
		t.Error("QoS should recover with the bomb frozen")
	}
}

func TestSimActuator(t *testing.T) {
	s, err := sim.NewSimulator(sim.DefaultHostConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddContainer("b", apps.NewCPUBomb(apps.DefaultCPUBombConfig())); err != nil {
		t.Fatal(err)
	}
	var act throttle.Actuator = NewSimActuator(s)
	// Unknown IDs are skipped, not errors (container may start later).
	if err := act.Pause([]string{"ghost", "b"}); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Container("b")
	if c.State() != sim.StateFrozen {
		t.Errorf("state = %v, want frozen", c.State())
	}
	if err := act.Resume([]string{"b", "ghost"}); err != nil {
		t.Fatal(err)
	}
	if c.State() != sim.StateRunning {
		t.Errorf("state = %v, want running", c.State())
	}
}
