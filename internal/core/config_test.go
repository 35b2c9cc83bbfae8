package core

import (
	"testing"

	"repro/internal/throttle"
	"repro/internal/trajectory"
)

func TestApplyDefaultsFillsZeroValues(t *testing.T) {
	cfg := Config{
		SensitiveID: "web",
		Ranges:      testRanges(),
	}
	cfg.applyDefaults()
	if cfg.LogicalBatchVM != "batch" {
		t.Errorf("LogicalBatchVM = %q", cfg.LogicalBatchVM)
	}
	if cfg.DedupEpsilon != 0.03 || cfg.RefreshEvery != 8 {
		t.Errorf("defaults = %v/%v", cfg.DedupEpsilon, cfg.RefreshEvery)
	}
	if cfg.Predictor.Samples != 5 {
		t.Errorf("predictor default = %+v", cfg.Predictor)
	}
	if cfg.Trajectory == (trajectory.ModelConfig{}) {
		t.Error("trajectory default not applied")
	}
	if cfg.Throttle == (throttle.Config{}) {
		t.Error("throttle default not applied")
	}
	// Explicit values survive.
	cfg2 := Config{SensitiveID: "web", Ranges: testRanges(), DedupEpsilon: -1, RefreshEvery: 3}
	cfg2.applyDefaults()
	if cfg2.DedupEpsilon != -1 || cfg2.RefreshEvery != 3 {
		t.Errorf("explicit values overwritten: %v/%v", cfg2.DedupEpsilon, cfg2.RefreshEvery)
	}
}

func TestRuntimeBetaAccessor(t *testing.T) {
	env := &fakeEnv{script: []envStep{{sensitiveCPU: 10, sensRunning: true}}}
	r, _ := newTestRuntime(t, baseConfig(), env)
	if r.Beta() != 0.01 {
		t.Errorf("initial beta = %v, want 0.01", r.Beta())
	}
}

func TestEventStringFlags(t *testing.T) {
	ev := Event{Period: 3, NewState: true, Violation: true, Predicted: true, Throttled: true}
	s := ev.String()
	for _, want := range []string{"N", "V", "P", "T", "p=3"} {
		if !contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
	plain := Event{Period: 1}.String()
	if !contains(plain, "-") {
		t.Errorf("plain event %q missing '-' flags", plain)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestLandmarkRefresh(t *testing.T) {
	cfg := baseConfig()
	cfg.LandmarkThreshold = 5
	cfg.RefreshEvery = 3
	// Many distinct states so the space exceeds the landmark threshold.
	var script []envStep
	for i := 0; i < 16; i++ {
		script = append(script, envStep{sensitiveCPU: float64(15 + i*22), sensRunning: true})
	}
	env := &fakeEnv{script: script}
	r, _ := newTestRuntime(t, cfg, env)
	for range script {
		if _, err := r.Period(); err != nil {
			t.Fatal(err)
		}
	}
	rep := r.Report()
	if rep.Refreshes == 0 {
		t.Fatal("no refreshes happened")
	}
	if rep.States <= cfg.LandmarkThreshold {
		t.Fatalf("states = %d, need > threshold %d to exercise landmark path",
			rep.States, cfg.LandmarkThreshold)
	}
	// 1-D CPU ramps embed with low stress even through the landmark path.
	if rep.LastStress > 0.2 {
		t.Errorf("landmark refresh stress = %v", rep.LastStress)
	}
}

func TestDisableBatchAggregationSchema(t *testing.T) {
	cfg := baseConfig()
	cfg.DisableBatchAggregation = true
	env := &fakeEnv{script: []envStep{
		{sensitiveCPU: 100, batchCPU: 50, sensRunning: true, batchRunning: true, batchActive: true},
	}}
	r, _ := newTestRuntime(t, cfg, env)
	ev, err := r.Period()
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Space().State(ev.StateID)
	if err != nil {
		t.Fatal(err)
	}
	// Schema: sensitive + one batch container × 4 metrics = 8 dims.
	if len(st.Vector) != 8 {
		t.Errorf("vector dim = %d, want 8", len(st.Vector))
	}
}

func TestConfigRejectsDuplicateBatchIDs(t *testing.T) {
	env := &fakeEnv{}
	act := throttle.NewRecordingActuator()
	cfg := baseConfig()
	cfg.BatchIDs = []string{"b1", "b2", "b1"}
	if _, err := New(cfg, env, act); err == nil {
		t.Fatal("duplicate BatchIDs should be rejected")
	}
}
