package core

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/race"
)

// nopActuator accepts every decision and records nothing, so the guard
// below counts the lane's allocations, not a test double's.
type nopActuator struct{}

func (nopActuator) Pause([]string) error  { return nil }
func (nopActuator) Resume([]string) error { return nil }

// TestRevisitPeriodAllocs guards the steady state: once the map knows
// every state a host visits and the event ring is full, a period —
// vectorize, reducer scan, trajectory step, forecast draws and vote,
// throttle decision, event — allocates nothing.
func TestRevisitPeriodAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, perContainer := range []bool{false, true} {
		cfg := DefaultConfig("web", []string{"b1", "b2"}, testRanges())
		cfg.DisableBatchAggregation = perContainer
		cfg.EventWindow = 16
		lane, err := NewLane(cfg, nopActuator{})
		if err != nil {
			t.Fatal(err)
		}
		// Four well-separated operating points, the highest one violating.
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
		// Learn the map, ready the trajectory models and fill the ring.
		for p := 0; p < 4*cfg.EventWindow; p++ {
			if _, err := lane.Period(inputs[p%len(inputs)]); err != nil {
				t.Fatal(err)
			}
		}
		p := 0
		n := testing.AllocsPerRun(200, func() {
			ev, err := lane.Period(inputs[p%len(inputs)])
			if err != nil {
				t.Fatal(err)
			}
			if ev.NewState {
				t.Fatalf("period %d created a state; the guard measures revisits", ev.Period)
			}
			p++
		})
		if n != 0 {
			t.Errorf("per-container=%v: a revisit period allocates %v times, want 0", perContainer, n)
		}
		if lane.Report().PredictedViolations == 0 {
			t.Errorf("per-container=%v: no period forecast a violation; the guard never drew candidates", perContainer)
		}
	}
}
