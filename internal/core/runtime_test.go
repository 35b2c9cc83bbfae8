package core

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/throttle"
	"repro/internal/trajectory"
)

// envStep scripts one period of a fake environment.
type envStep struct {
	sensitiveCPU float64 // raw CPU for the sensitive container
	batchCPU     float64 // raw CPU for the batch container
	violation    bool
	sensRunning  bool
	batchRunning bool
	batchActive  bool
}

// fakeEnv replays a script; the final step repeats forever.
type fakeEnv struct {
	script []envStep
	i      int
	cur    envStep
}

func (f *fakeEnv) Collect() []metrics.Sample {
	if f.i < len(f.script) {
		f.cur = f.script[f.i]
		f.i++
	}
	return []metrics.Sample{
		metrics.NewSample("web", map[metrics.Metric]float64{
			metrics.MetricCPU:    f.cur.sensitiveCPU,
			metrics.MetricMemory: 500,
		}),
		metrics.NewSample("b1", map[metrics.Metric]float64{
			metrics.MetricCPU: f.cur.batchCPU,
		}),
	}
}

func (f *fakeEnv) QoSViolation() bool     { return f.cur.violation }
func (f *fakeEnv) SensitiveRunning() bool { return f.cur.sensRunning }
func (f *fakeEnv) BatchRunning() bool     { return f.cur.batchRunning }
func (f *fakeEnv) BatchActive() bool      { return f.cur.batchActive }

var _ Environment = (*fakeEnv)(nil)

func testRanges() map[metrics.Metric]metrics.Range {
	return metrics.DefaultRanges(4, 4096, 200, 1000)
}

func newTestRuntime(t *testing.T, cfg Config, env Environment) (*Runtime, *throttle.RecordingActuator) {
	t.Helper()
	act := throttle.NewRecordingActuator()
	r, err := New(cfg, env, act)
	if err != nil {
		t.Fatal(err)
	}
	return r, act
}

func baseConfig() Config {
	return DefaultConfig("web", []string{"b1"}, testRanges())
}

func TestNewValidation(t *testing.T) {
	env := &fakeEnv{}
	act := throttle.NewRecordingActuator()

	cfg := baseConfig()
	cfg.SensitiveID = ""
	if _, err := New(cfg, env, act); err == nil {
		t.Error("missing SensitiveID should error")
	}

	cfg = baseConfig()
	cfg.Ranges = nil
	if _, err := New(cfg, env, act); err == nil {
		t.Error("missing Ranges should error")
	}

	cfg = baseConfig()
	cfg.LogicalBatchVM = "web"
	if _, err := New(cfg, env, act); err == nil {
		t.Error("VM name collision should error")
	}

	cfg = baseConfig()
	cfg.BatchIDs = []string{"web"}
	if _, err := New(cfg, env, act); err == nil {
		t.Error("sensitive-as-batch should error")
	}

	cfg = baseConfig()
	cfg.RefreshEvery = -1
	if _, err := New(cfg, env, act); err == nil {
		t.Error("negative RefreshEvery should error")
	}

	if _, err := New(baseConfig(), nil, act); err == nil {
		t.Error("nil env should error")
	}
	if _, err := New(baseConfig(), env, nil); err == nil {
		t.Error("nil actuator should error")
	}
}

func TestPeriodCreatesAndDedupsStates(t *testing.T) {
	env := &fakeEnv{script: []envStep{
		{sensitiveCPU: 100, batchCPU: 0, sensRunning: true},
		{sensitiveCPU: 100, batchCPU: 0, sensRunning: true}, // identical: dedup
		{sensitiveCPU: 300, batchCPU: 200, sensRunning: true, batchRunning: true, batchActive: true},
	}}
	r, _ := newTestRuntime(t, baseConfig(), env)

	ev1, err := r.Period()
	if err != nil {
		t.Fatal(err)
	}
	if !ev1.NewState || ev1.StateID != 0 {
		t.Errorf("first period: %+v", ev1)
	}
	ev2, err := r.Period()
	if err != nil {
		t.Fatal(err)
	}
	if ev2.NewState || ev2.StateID != 0 {
		t.Errorf("identical vector should dedup: %+v", ev2)
	}
	ev3, err := r.Period()
	if err != nil {
		t.Fatal(err)
	}
	if !ev3.NewState || ev3.StateID != 1 {
		t.Errorf("distinct vector should create state: %+v", ev3)
	}
	st, err := r.Space().State(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Weight != 2 {
		t.Errorf("state 0 weight = %d, want 2", st.Weight)
	}
}

func TestPeriodMarksViolations(t *testing.T) {
	env := &fakeEnv{script: []envStep{
		{sensitiveCPU: 100, sensRunning: true},
		{sensitiveCPU: 380, batchCPU: 380, violation: true, sensRunning: true, batchRunning: true, batchActive: true},
	}}
	r, _ := newTestRuntime(t, baseConfig(), env)
	if _, err := r.Period(); err != nil {
		t.Fatal(err)
	}
	ev, err := r.Period()
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Violation {
		t.Error("violation flag lost")
	}
	if ids := r.Space().ViolationIDs(); len(ids) != 1 || ids[0] != ev.StateID {
		t.Errorf("violation IDs = %v, want [%d]", ids, ev.StateID)
	}
	rep := r.Report()
	if rep.Violations != 1 || rep.Periods != 2 {
		t.Errorf("report = %+v", rep)
	}
}

func TestPeriodDetectsModes(t *testing.T) {
	env := &fakeEnv{script: []envStep{
		{},
		{sensitiveCPU: 100, sensRunning: true},
		{batchCPU: 100, batchRunning: true, batchActive: true},
		{sensitiveCPU: 100, batchCPU: 100, sensRunning: true, batchRunning: true, batchActive: true},
	}}
	r, _ := newTestRuntime(t, baseConfig(), env)
	want := []trajectory.Mode{
		trajectory.ModeIdle,
		trajectory.ModeSensitiveOnly,
		trajectory.ModeBatchOnly,
		trajectory.ModeColocated,
	}
	for i, w := range want {
		ev, err := r.Period()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Mode != w {
			t.Errorf("period %d mode = %v, want %v", i, ev.Mode, w)
		}
	}
}

// rampScenario scripts the canonical Stay-Away story: learn a violation at
// high batch CPU, then watch the batch ramp toward it again.
func rampScenario() []envStep {
	var script []envStep
	run := func(s envStep) {
		s.sensRunning = true
		s.batchRunning = true
		s.batchActive = true
		script = append(script, s)
	}
	// Ramp up to a violation once (learning phase).
	for cpu := 40.0; cpu <= 360; cpu += 40 {
		run(envStep{sensitiveCPU: 150, batchCPU: cpu})
	}
	run(envStep{sensitiveCPU: 150, batchCPU: 390, violation: true})
	// Back off.
	for cpu := 360.0; cpu >= 40; cpu -= 40 {
		run(envStep{sensitiveCPU: 150, batchCPU: cpu})
	}
	// Second ramp toward the same violation.
	for cpu := 40.0; cpu <= 390; cpu += 40 {
		run(envStep{sensitiveCPU: 150, batchCPU: cpu})
	}
	return script
}

func TestRuntimePredictsAndThrottlesOnSecondRamp(t *testing.T) {
	env := &fakeEnv{script: rampScenario()}
	r, act := newTestRuntime(t, baseConfig(), env)
	var pausedAt = -1
	for i := 0; i < len(env.script); i++ {
		ev, err := r.Period()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Action == throttle.ActionPause && pausedAt < 0 {
			pausedAt = ev.Period
		}
	}
	if pausedAt < 0 {
		t.Fatal("runtime never paused the batch application")
	}
	// The learning-phase violation happens at period 9; the controller
	// may pause reactively there. What matters for prediction is that the
	// *second* ramp is cut off before its violation step (the last script
	// entry).
	if pausedAt >= len(env.script)-1 {
		t.Errorf("pause at %d is too late (script len %d)", pausedAt, len(env.script))
	}
	if len(act.Events()) == 0 {
		t.Error("no actuations recorded")
	}
	rep := r.Report()
	if rep.PredictedViolations == 0 {
		t.Error("no predicted violations despite repeat ramp")
	}
}

func TestDisableActionsObservesOnly(t *testing.T) {
	cfg := baseConfig()
	cfg.DisableActions = true
	env := &fakeEnv{script: rampScenario()}
	r, act := newTestRuntime(t, cfg, env)
	for i := 0; i < len(env.script); i++ {
		if _, err := r.Period(); err != nil {
			t.Fatal(err)
		}
	}
	if len(act.Events()) != 0 {
		t.Errorf("observe-only mode actuated: %v", act.Events())
	}
	if r.Report().PredictedViolations == 0 {
		t.Error("observe-only mode should still predict")
	}
}

func TestRefreshEmbeddingRuns(t *testing.T) {
	cfg := baseConfig()
	cfg.RefreshEvery = 3
	// Many distinct vectors force state creation each period.
	var script []envStep
	for i := 0; i < 12; i++ {
		script = append(script, envStep{sensitiveCPU: float64(20 + i*30), sensRunning: true})
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
		t.Error("no SMACOF refreshes despite many new states")
	}
	if rep.LastStress > 0.2 {
		t.Errorf("refresh stress = %v, want low for 1-D data", rep.LastStress)
	}
}

func TestEventsRecorded(t *testing.T) {
	env := &fakeEnv{script: []envStep{{sensitiveCPU: 100, sensRunning: true}}}
	r, _ := newTestRuntime(t, baseConfig(), env)
	if _, err := r.Period(); err != nil {
		t.Fatal(err)
	}
	evs := r.Events()
	if len(evs) != 1 || evs[0].Period != 0 {
		t.Errorf("events = %v", evs)
	}
	if evs[0].String() == "" {
		t.Error("event string empty")
	}
}

func TestTemplateRoundTripThroughRuntime(t *testing.T) {
	env := &fakeEnv{script: rampScenario()}
	r, _ := newTestRuntime(t, baseConfig(), env)
	for range env.script {
		if _, err := r.Period(); err != nil {
			t.Fatal(err)
		}
	}
	tpl := r.ExportTemplate("web")
	if len(tpl.States) == 0 {
		t.Fatal("template empty")
	}

	// A fresh runtime importing the template starts with the violation
	// knowledge.
	env2 := &fakeEnv{script: rampScenario()}
	r2, _ := newTestRuntime(t, baseConfig(), env2)
	if err := r2.ImportTemplate(tpl); err != nil {
		t.Fatal(err)
	}
	if !r2.Space().HasViolations() {
		t.Error("imported space lost violations")
	}
	// The seeded runtime should throttle earlier than a cold one: its
	// first ramp is already guarded.
	var firstPause2 = -1
	for i := 0; i < len(env2.script); i++ {
		ev, err := r2.Period()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Action == throttle.ActionPause && firstPause2 < 0 {
			firstPause2 = ev.Period
			break
		}
	}
	if firstPause2 < 0 {
		t.Fatal("template-seeded runtime never paused")
	}
	if firstPause2 >= 9 {
		t.Errorf("template-seeded pause at %d; should beat the cold learning violation at 9", firstPause2)
	}
}

func TestImportTemplateAfterStartFails(t *testing.T) {
	env := &fakeEnv{script: []envStep{{sensitiveCPU: 100, sensRunning: true}}}
	r, _ := newTestRuntime(t, baseConfig(), env)
	if _, err := r.Period(); err != nil {
		t.Fatal(err)
	}
	tpl := r.ExportTemplate("web")
	if err := r.ImportTemplate(tpl); err == nil {
		t.Error("import after periods should error")
	}
}

func TestAccuracyTrackerWired(t *testing.T) {
	env := &fakeEnv{script: rampScenario()}
	r, _ := newTestRuntime(t, baseConfig(), env)
	for range env.script {
		if _, err := r.Period(); err != nil {
			t.Fatal(err)
		}
	}
	if r.Tracker().Total() != len(env.script)-1 {
		t.Errorf("tracked %d, want %d (one per period after the first)",
			r.Tracker().Total(), len(env.script)-1)
	}
}

func TestReportString(t *testing.T) {
	var rep Report
	if rep.String() == "" {
		t.Error("report string empty")
	}
	rep.Refreshes, rep.RefreshesSkipped, rep.Landmarks = 3, 40, 171
	if want := "refreshes=3 (skipped=40) landmarks=171 "; !strings.Contains(rep.String(), want) {
		t.Errorf("report %q lacks %q", rep.String(), want)
	}
}
