package core

import (
	"runtime"
	"testing"

	"repro/internal/metrics"
	"repro/internal/race"
)

// nopActuator accepts every decision and records nothing, so the guard
// below counts the lane's allocations, not a test double's.
type nopActuator struct{}

func (nopActuator) Pause([]string) error  { return nil }
func (nopActuator) Resume([]string) error { return nil }

// revisitLane returns a lane and four well-separated operating points to
// drive it with, the highest one violating: once each has been seen, every
// period revisits a known state.
func revisitLane(t *testing.T, perContainer bool) (*Lane, []PeriodInput) {
	t.Helper()
	cfg := DefaultConfig("web", []string{"b1", "b2"}, testRanges())
	cfg.DisableBatchAggregation = perContainer
	lane, err := NewLane(cfg, nopActuator{})
	if err != nil {
		t.Fatal(err)
	}
	var inputs []PeriodInput
	for i, cpu := range []float64{40, 120, 200, 280} {
		inputs = append(inputs, PeriodInput{
			Samples: []metrics.Sample{
				{VM: "web", Values: map[metrics.Metric]float64{metrics.MetricCPU: cpu, metrics.MetricMemory: 500}},
				{VM: "b1", Values: map[metrics.Metric]float64{metrics.MetricCPU: 400 - cpu}},
				{VM: "b2", Values: map[metrics.Metric]float64{metrics.MetricIO: 20}},
			},
			Violation:        i == 3,
			SensitiveRunning: true,
			BatchRunning:     true,
			BatchActive:      true,
		})
	}
	return lane, inputs
}

// runPeriods drives lane over inputs round robin until it has run n
// periods.
func runPeriods(t *testing.T, lane *Lane, inputs []PeriodInput, n int) {
	t.Helper()
	for lane.Periods() < n {
		if _, err := lane.Period(inputs[lane.Periods()%len(inputs)]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRevisitPeriodAllocs guards the steady state: once the map knows
// every state a host visits and the trajectory models are warm, a period —
// vectorize, dedup scan, trajectory step, forecast draws and vote,
// throttle decision, event — allocates nothing.
func TestRevisitPeriodAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, perContainer := range []bool{false, true} {
		lane, inputs := revisitLane(t, perContainer)
		runPeriods(t, lane, inputs, 64)
		n := testing.AllocsPerRun(200, func() {
			ev, err := lane.Period(inputs[lane.Periods()%len(inputs)])
			if err != nil {
				t.Fatal(err)
			}
			if ev.NewState {
				t.Fatalf("period %d created a state; the guard measures revisits", ev.Period)
			}
		})
		if n != 0 {
			t.Errorf("per-container=%v: a revisit period allocates %v times, want 0", perContainer, n)
		}
		if lane.Report().PredictedViolations == 0 {
			t.Errorf("per-container=%v: no period forecast a violation; the guard never drew candidates", perContainer)
		}
	}
}

// TestLaneRetainedHeapFlat guards what a lane keeps: what it learned, not
// what it did. Once the map knows every state, the heap a lane retains
// must not grow with the number of periods it has run.
func TestLaneRetainedHeapFlat(t *testing.T) {
	if race.Enabled {
		t.Skip("heap sizes are meaningless under -race")
	}
	const slack = 4 << 10
	retained := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	lane, inputs := revisitLane(t, false)
	runPeriods(t, lane, inputs, 1000)
	before := retained()
	runPeriods(t, lane, inputs, 20000)
	after := retained()
	if lane.Report().States != len(inputs) {
		t.Fatalf("%d states, want %d: the guard measures revisits", lane.Report().States, len(inputs))
	}
	t.Logf("retained heap: %d B after 1000 periods, %d B after 20000", before, after)
	if after > before+slack {
		t.Errorf("retained heap grew by %d B from period 1000 to 20000, want ≤ %d B", after-before, slack)
	}
	runtime.KeepAlive(lane)
}
