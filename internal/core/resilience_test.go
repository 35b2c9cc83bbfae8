package core

import (
	"strings"
	"testing"

	"repro/internal/throttle"
)

// staleEnv extends fakeEnv with a scripted QoS-freshness signal
// (core.QoSFreshness); the final value repeats like the env script.
type staleEnv struct {
	fakeEnv
	fresh []bool
}

func (e *staleEnv) QoSFresh() bool {
	idx := e.i - 1
	if idx >= len(e.fresh) {
		idx = len(e.fresh) - 1
	}
	if idx < 0 {
		return true
	}
	return e.fresh[idx]
}

var _ QoSFreshness = (*staleEnv)(nil)

func TestRuntimeMarksQoSStaleAtExactThreshold(t *testing.T) {
	// Threshold 2: the FIRST silent period is tolerated, the second flips
	// the staleness flag — and a state first seen while stale stays
	// unverified until a fresh-signal revisit.
	env := &staleEnv{
		fakeEnv: fakeEnv{script: []envStep{
			{sensitiveCPU: 50, sensRunning: true},  // fresh baseline
			{sensitiveCPU: 50, sensRunning: true},  // silent #1: below threshold
			{sensitiveCPU: 250, sensRunning: true}, // silent #2: stale; NEW state
			{sensitiveCPU: 250, sensRunning: true}, // silent #3: still stale
			{sensitiveCPU: 250, sensRunning: true}, // fresh revisit: verifies
		}},
		fresh: []bool{true, false, false, false, true},
	}
	cfg := baseConfig()
	cfg.QoSStaleAfter = 2
	r, _ := newTestRuntime(t, cfg, env)

	var evs []Event
	for range env.script {
		ev, err := r.Period()
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}

	wantStale := []bool{false, false, true, true, false}
	for i, want := range wantStale {
		if evs[i].QoSStale != want {
			t.Errorf("period %d: QoSStale = %v, want %v", i, evs[i].QoSStale, want)
		}
	}
	if !evs[2].NewState {
		t.Fatal("setup: period 2 did not create a state")
	}
	rep := r.Report()
	if rep.QoSStalePeriods != 2 {
		t.Errorf("QoSStalePeriods = %d, want 2", rep.QoSStalePeriods)
	}
	// The fresh revisit at period 4 verified the stale-born state.
	if rep.UnverifiedStates != 0 {
		t.Errorf("UnverifiedStates = %d after fresh revisit, want 0", rep.UnverifiedStates)
	}
	if !strings.Contains(rep.String(), "qos_stale=2") {
		t.Errorf("report does not surface staleness: %q", rep.String())
	}
}

func TestRuntimeStaleStateStaysUnverifiedWithoutFreshRevisit(t *testing.T) {
	env := &staleEnv{
		fakeEnv: fakeEnv{script: []envStep{
			{sensitiveCPU: 50, sensRunning: true},
			{sensitiveCPU: 50, sensRunning: true},
			{sensitiveCPU: 250, sensRunning: true}, // stale birth
			{sensitiveCPU: 250, sensRunning: true}, // stale revisit: no verification
		}},
		fresh: []bool{true, false, false, false},
	}
	cfg := baseConfig()
	cfg.QoSStaleAfter = 2
	r, _ := newTestRuntime(t, cfg, env)
	for range env.script {
		if _, err := r.Period(); err != nil {
			t.Fatal(err)
		}
	}
	if rep := r.Report(); rep.UnverifiedStates != 1 {
		t.Errorf("UnverifiedStates = %d, want 1 (silence proves nothing)", rep.UnverifiedStates)
	}
}

func TestHealthSurfacesQoSStaleness(t *testing.T) {
	env := &staleEnv{
		fakeEnv: fakeEnv{script: []envStep{
			{sensitiveCPU: 50, sensRunning: true},
			{sensitiveCPU: 50, sensRunning: true},
			{sensitiveCPU: 50, sensRunning: true},
		}},
		fresh: []bool{true, false, false},
	}
	cfg := baseConfig()
	cfg.QoSStaleAfter = 2
	h, err := NewHost(env, throttle.NewRecordingActuator())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddLane(cfg, env); err != nil {
		t.Fatal(err)
	}
	for range env.script {
		if _, err := h.Period(); err != nil {
			t.Fatal(err)
		}
	}
	if health := h.Health(); len(health) != 1 || !health[0].QoSStale {
		t.Errorf("health %+v does not surface the stale QoS signal", health)
	}
}
