package core

import (
	"testing"

	"repro/internal/throttle"
)

// TestHostLifecycleE2E is the live-operations acceptance scenario at the
// core layer: with batch containers actively throttled, a lane is added,
// a lane is removed, and an invalid reconfiguration is pushed — the
// surviving lane never sees a restriction gap, the departing lane's
// batch containers are released exactly once, and the invalid config is
// rejected without disturbing the running set.
func TestHostLifecycleE2E(t *testing.T) {
	env := &fakeHostEnv{script: []hostStep{
		colocated(100, 300, 50, false, false),
		colocated(100, 300, 200, true, true), // both lanes violate → both freeze
		colocated(100, 300, 200, true, true),
	}}
	act := throttle.NewRecordingActuator()
	h := newTwoLaneHost(t, env, act)
	for i := 0; i < 2; i++ {
		if _, err := h.Period(); err != nil {
			t.Fatal(err)
		}
	}
	if got := act.Paused(); len(got) != 2 {
		t.Fatalf("paused = %v, want the shared pool frozen", got)
	}

	// Add a third lane live while the pool is frozen. The newcomer must
	// not disturb the existing restrictions.
	cfg := laneConfig("cache", "cache-app")
	if _, err := h.AddLane(cfg, laneSig{env, "cache-app"}); err != nil {
		t.Fatalf("live AddLane: %v", err)
	}
	if got := act.Paused(); len(got) != 2 {
		t.Fatalf("paused after live add = %v, want unchanged", got)
	}

	// Invalid reconfiguration: cache-app tries to claim web-app's
	// sensitive container. Rejected; running set untouched.
	bad := laneConfig("web", "cache-app")
	if _, _, err := h.ReconfigureLane(bad, laneSig{env, "cache-app"}); err == nil {
		t.Fatal("reconfigure onto another lane's sensitive container should error")
	}
	if got := h.Apps(); len(got) != 3 {
		t.Fatalf("Apps() after rejected reconfigure = %v", got)
	}
	if got := act.Paused(); len(got) != 2 {
		t.Fatalf("paused after rejected reconfigure = %v, want unchanged", got)
	}

	// Remove one of the two restricting lanes: the survivor still wants
	// the pool frozen, so there must be NO gap — no thaw at all.
	resumesBefore := countResumes(act)
	removed, err := h.RemoveLane("kv-app")
	if err != nil {
		t.Fatalf("RemoveLane(kv-app): %v", err)
	}
	if removed == nil || removed.App() != "kv-app" {
		t.Fatalf("RemoveLane returned %v", removed)
	}
	// The departing lane's learned state is still checkpointable.
	if ck := removed.Checkpoint(); ck == nil || ck.Validate() != nil {
		t.Fatal("departing lane checkpoint not flushable")
	}
	if got := act.Paused(); len(got) != 2 {
		t.Fatalf("paused after removing one of two restricting lanes = %v, want still frozen", got)
	}
	if got := countResumes(act); got != resumesBefore {
		t.Fatalf("resumes went %d → %d during survivor-protected removal, want no thaw", resumesBefore, got)
	}
	if lanes := h.Arbiter().Restricting("b1"); len(lanes) != 1 || lanes[0] != "web-app" {
		t.Fatalf("Restricting(b1) = %v, want only the survivor", lanes)
	}

	// Remove the last restricting lane: the departing lane's batch
	// containers are released exactly once.
	if _, err := h.RemoveLane("web-app"); err != nil {
		t.Fatalf("RemoveLane(web-app): %v", err)
	}
	if got := act.Paused(); len(got) != 0 {
		t.Fatalf("paused after last restricting lane left = %v, want empty", got)
	}
	if got := countResumes(act); got != resumesBefore+1 {
		t.Fatalf("resumes = %d, want exactly one release (was %d)", got, resumesBefore)
	}

	// The host keeps running on the remaining lane.
	if got := h.Apps(); len(got) != 1 || got[0] != "cache-app" {
		t.Fatalf("Apps() = %v", got)
	}
	if _, err := h.Period(); err != nil {
		t.Fatal(err)
	}
}

func countResumes(act *throttle.RecordingActuator) int {
	n := 0
	for _, e := range act.Events() {
		if e.Action == throttle.ActionResume {
			n++
		}
	}
	return n
}

func TestHostRemoveLaneUnknown(t *testing.T) {
	env := &fakeHostEnv{}
	h := newTwoLaneHost(t, env, throttle.NewRecordingActuator())
	if _, err := h.RemoveLane("nope"); err == nil {
		t.Error("removing an unknown lane should error")
	}
	if got := h.Apps(); len(got) != 2 {
		t.Fatalf("Apps() after failed remove = %v", got)
	}
}

// TestHostReconfigureLaneCarriesState replaces a lane with a
// schema-compatible config and expects the learned space and controller
// threshold to survive the swap.
func TestHostReconfigureLaneCarriesState(t *testing.T) {
	env := &fakeHostEnv{script: []hostStep{
		colocated(100, 300, 50, false, false),
		colocated(150, 250, 100, false, false),
		colocated(120, 280, 150, false, true),
	}}
	act := throttle.NewRecordingActuator()
	h := newTwoLaneHost(t, env, act)
	for i := 0; i < 3; i++ {
		if _, err := h.Period(); err != nil {
			t.Fatal(err)
		}
	}
	old := h.Lane("kv-app")
	states := old.Space().Len()
	if states == 0 {
		t.Fatal("lane learned nothing before reconfigure")
	}

	cfg := laneConfig("kv", "kv-app")
	cfg.Throttle.MaxBeta = 0.42 // a tuning change that keeps the measurement schema
	lane, carried, err := h.ReconfigureLane(cfg, laneSig{env, "kv-app"})
	if err != nil {
		t.Fatalf("ReconfigureLane: %v", err)
	}
	if !carried {
		t.Fatal("schema-compatible reconfigure should carry learned state")
	}
	if lane == old {
		t.Fatal("reconfigure returned the old lane")
	}
	if got := lane.Space().Len(); got != states {
		t.Fatalf("carried space has %d states, want %d", got, states)
	}
	if h.Lane("kv-app") != lane {
		t.Fatal("host does not serve the replacement lane")
	}
	// Lane order is preserved: kv-app is still second.
	if got := h.Apps(); len(got) != 2 || got[1] != "kv-app" {
		t.Fatalf("Apps() = %v", got)
	}
	if _, err := h.Period(); err != nil {
		t.Fatalf("period after reconfigure: %v", err)
	}

	// Reconfiguring an unknown app errors.
	if _, _, err := h.ReconfigureLane(laneConfig("x", "x-app"), laneSig{env, "x-app"}); err == nil {
		t.Error("reconfiguring an unknown lane should error")
	}
}

// TestHostReconfigureLaneCollisions checks the cross-lane container rules
// on reconfiguration: each collision with a surviving lane is rejected
// and leaves the running lane and its restrictions untouched, while the
// lane's own old containers are free to reuse.
func TestHostReconfigureLaneCollisions(t *testing.T) {
	env := &fakeHostEnv{script: []hostStep{
		colocated(100, 300, 50, false, false),
		colocated(100, 300, 200, false, true), // kv violates → freezes the pool
	}}
	act := throttle.NewRecordingActuator()
	h := newTwoLaneHost(t, env, act)
	for i := 0; i < 2; i++ {
		if _, err := h.Period(); err != nil {
			t.Fatal(err)
		}
	}
	running := h.Lane("kv-app")
	paused := act.Paused()
	if len(paused) != 2 {
		t.Fatalf("paused = %v, want the shared pool frozen by kv-app", paused)
	}

	batchWeb := laneConfig("kv", "kv-app")
	batchWeb.BatchIDs = []string{"b1", "web"}
	sensitiveB1 := laneConfig("b1", "kv-app")
	sensitiveB1.BatchIDs = []string{"b2"}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"sensitive owned by web-app", laneConfig("web", "kv-app"), `sensitive container "web" already owned by lane "web-app"`},
		{"web-app's sensitive as batch", batchWeb, `container "web" is lane "web-app"'s sensitive app, cannot be batch`},
		{"web-app's batch as sensitive", sensitiveB1, `container "b1" is lane "web-app"'s batch, cannot be sensitive`},
	} {
		_, _, err := h.ReconfigureLane(tc.cfg, laneSig{env, "kv-app"})
		if err == nil || err.Error() != "core: "+tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if h.Lane("kv-app") != running {
			t.Fatalf("%s: rejected reconfigure replaced the running lane", tc.name)
		}
		if got := act.Paused(); len(got) != len(paused) {
			t.Fatalf("%s: paused = %v after a rejected reconfigure, want %v", tc.name, got, paused)
		}
		if got := h.Restricting(); len(got["b1"]) != 1 || got["b1"][0] != "kv-app" {
			t.Fatalf("%s: restricting = %v, want kv-app alone on b1", tc.name, got)
		}
	}

	// The lane's own sensitive and batch containers collide only with
	// itself, and the lane being replaced is exempt.
	lane, _, err := h.ReconfigureLane(laneConfig("kv", "kv-app"), laneSig{env, "kv-app"})
	if err != nil {
		t.Fatalf("reconfigure onto the lane's own containers: %v", err)
	}
	if lane == running || h.Lane("kv-app") != lane {
		t.Fatal("accepted reconfigure did not swap in the new lane")
	}
}

func TestHostHealth(t *testing.T) {
	env := &fakeHostEnv{script: []hostStep{
		colocated(100, 300, 50, false, false),
		colocated(100, 300, 200, false, true), // kv violates → throttles
	}}
	act := throttle.NewRecordingActuator()
	h := newTwoLaneHost(t, env, act)
	for i := 0; i < 2; i++ {
		if _, err := h.Period(); err != nil {
			t.Fatal(err)
		}
	}
	health := h.Health()
	if len(health) != 2 {
		t.Fatalf("Health() = %d lanes, want 2", len(health))
	}
	if health[0].App != "web-app" || health[1].App != "kv-app" {
		t.Fatalf("health apps = %q, %q", health[0].App, health[1].App)
	}
	for _, lh := range health {
		if lh.Periods != 2 {
			t.Errorf("%s Periods = %d, want 2", lh.App, lh.Periods)
		}
		if lh.States == 0 {
			t.Errorf("%s States = 0", lh.App)
		}
		if lh.Beta <= 0 {
			t.Errorf("%s Beta = %v", lh.App, lh.Beta)
		}
	}
	if health[0].Throttled || !health[1].Throttled {
		t.Errorf("throttled: web=%v kv=%v", health[0].Throttled, health[1].Throttled)
	}
	if health[1].Violations != 1 {
		t.Errorf("kv Violations = %d, want 1", health[1].Violations)
	}
	if health[1].Level != 0 {
		t.Errorf("kv Level = %v, want 0 (frozen)", health[1].Level)
	}
}
