package experiments

import (
	"math"
	"testing"
)

// TestOpenVsClosedAblation is the PR's acceptance criterion: under the
// identical mild cpu.max quota, the closed-loop grant-ratio QoS sees
// nothing while the open-loop p99-latency QoS registers violations.
func TestOpenVsClosedAblation(t *testing.T) {
	res, err := OpenVsClosed(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClosedViolations != 0 {
		t.Fatalf("closed-loop QoS should ride above threshold under the 0.91 quota, got %d violations",
			res.ClosedViolations)
	}
	if res.OpenViolations == 0 {
		t.Fatal("open-loop QoS must register violations the closed-loop model misses")
	}
	if res.PeakBacklog < 50 {
		t.Fatalf("throttled open-loop service should accumulate a large backlog, peak = %v",
			res.PeakBacklog)
	}
}

func TestScenarioZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo suite is long")
	}
	fig, report, err := ScenarioZoo(1)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "scenario-zoo" || fig.Text == "" {
		t.Fatalf("malformed figure: %+v", fig)
	}
	if len(report.Rows) != 4 {
		t.Fatalf("expected 4 zoo classes, got %d", len(report.Rows))
	}
	for _, r := range report.Rows {
		if r.UnprotectedRate < 0 || r.UnprotectedRate > 1 || r.ProtectedRate < 0 || r.ProtectedRate > 1 {
			t.Fatalf("%s: rates out of range: %+v", r.Class, r)
		}
		if r.UnprotectedRate == 0 {
			t.Errorf("%s: aggressor should cause violations unprotected", r.Class)
		}
		if r.ProtectedRate > r.UnprotectedRate {
			t.Errorf("%s: Stay-Away made things worse: %.3f > %.3f",
				r.Class, r.ProtectedRate, r.UnprotectedRate)
		}
		if r.BatchWork <= 0 {
			t.Errorf("%s: protected run must still get batch work done", r.Class)
		}
		if r.UtilizationGain <= 0 {
			t.Errorf("%s: protected run should report gained utilization", r.Class)
		}
		if r.ProtectedRate > r.ReactiveRate || r.ReactiveWork <= 0 {
			t.Errorf("%s: the forecast cost violations against reacting alone, or the reactive arm did no work: %+v", r.Class, r)
		}
	}
}

// TestScenarioZooDeterministic: the CI gate replays the suite, so two runs
// with the same seed must agree bit-for-bit on every summary value.
func TestScenarioZooDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo suite is long")
	}
	figA, _, err := ScenarioZoo(7)
	if err != nil {
		t.Fatal(err)
	}
	figB, _, err := ScenarioZoo(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(figA.Summary) != len(figB.Summary) {
		t.Fatalf("summary size differs: %d vs %d", len(figA.Summary), len(figB.Summary))
	}
	for k, va := range figA.Summary {
		vb, ok := figB.Summary[k]
		if !ok {
			t.Fatalf("summary key %q missing on replay", k)
		}
		if va != vb && !(math.IsNaN(va) && math.IsNaN(vb)) {
			t.Fatalf("summary[%q] differs across same-seed runs: %v vs %v", k, va, vb)
		}
	}
}
