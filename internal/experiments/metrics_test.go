package experiments

import (
	"math"
	"testing"
)

func TestQoSSeries(t *testing.T) {
	records := []TickRecord{
		{SensitiveRunning: true, QoS: 0.9, Threshold: 0.9},
		{SensitiveRunning: true, QoS: 0.45, Threshold: 0.9},
		{SensitiveRunning: false, QoS: 0.9, Threshold: 0.9},
		{SensitiveRunning: true, QoS: 1, Threshold: 0},
	}
	got := QoSSeries(records)
	want := []float64{1, 0.5, 0, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("q[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestGainAndUtilSeries(t *testing.T) {
	records := []TickRecord{
		{BatchCPUShare: 0.2, Utilization: 0.5, Throttled: true},
		{BatchCPUShare: 0.7, Utilization: 0.9},
	}
	g := GainSeries(records)
	if g[0] != 0.2 || g[1] != 0.7 {
		t.Errorf("gain = %v", g)
	}
	th := ThrottleSeries(records)
	if th[0] != 1 || th[1] != 0 {
		t.Errorf("throttle = %v", th)
	}
}

func TestViolations(t *testing.T) {
	var records []TickRecord
	// 10 running ticks; violations at ticks 1 and 2 (first half).
	for i := 0; i < 10; i++ {
		records = append(records, TickRecord{
			Tick:             i,
			SensitiveRunning: true,
			Violation:        i == 1 || i == 2,
		})
	}
	// Non-running ticks are excluded entirely.
	records = append(records, TickRecord{Tick: 10, Violation: true})
	vs := Violations(records)
	if vs.Ticks != 10 || vs.Violations != 2 {
		t.Errorf("stats = %+v", vs)
	}
	if math.Abs(vs.Rate-0.2) > 1e-12 {
		t.Errorf("rate = %v", vs.Rate)
	}
	if vs.FirstHalf != 2 || vs.SecondHalf != 0 {
		t.Errorf("halves = %d/%d", vs.FirstHalf, vs.SecondHalf)
	}
}

func TestViolationsEmpty(t *testing.T) {
	vs := Violations(nil)
	if vs.Ticks != 0 || vs.Rate != 0 {
		t.Errorf("empty stats = %+v", vs)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
}

func TestMeanWhile(t *testing.T) {
	records := []TickRecord{
		{Tick: 0, Throttled: true},
		{Tick: 1},
		{Tick: 2, Throttled: true},
	}
	xs := []float64{10, 20, 30}
	got := MeanWhile(records, xs, func(r TickRecord) bool { return r.Throttled })
	if got != 20 {
		t.Errorf("mean while throttled = %v, want 20", got)
	}
	if MeanWhile(records, xs, func(TickRecord) bool { return false }) != 0 {
		t.Error("no matching ticks should average to 0")
	}
}
