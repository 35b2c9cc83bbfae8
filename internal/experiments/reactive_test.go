package experiments

import "testing"

// The reactive arm differs from Stay-Away by the forecast alone: it never
// predicts a violation, yet still throttles on reported ones.
func TestReactiveArmNeverForecasts(t *testing.T) {
	sc := Scenario{
		SensitiveID: "vlc",
		Sensitive:   vlcStreamApp,
		Batch:       []Placement{{ID: "twitter", StartTick: 20, App: twitterApp}},
		Ticks:       300,
		Seed:        42,
		StayAway:    true,
	}
	on, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Tune = reactive
	off, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if on.Report.PredictedViolations == 0 {
		t.Fatal("the forecast never fired with it on; the scenario shows nothing")
	}
	if off.Report.PredictedViolations != 0 {
		t.Errorf("the reactive arm forecast %d violations, want none", off.Report.PredictedViolations)
	}
	if off.Report.Violations == 0 || off.Report.Pauses == 0 {
		t.Errorf("the reactive arm saw %d violations and paused %d times; it must react to reported ones",
			off.Report.Violations, off.Report.Pauses)
	}
}
