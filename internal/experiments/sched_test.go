package experiments

import "testing"

// TestSchedAblation is the acceptance gate for the placement subsystem:
// on every seed the learned-map scorer must beat the static
// cross-application baseline on violation rate and never lose to the
// random one, at equal or higher batch throughput. Sweeping seeds keeps
// the lead from resting on one lucky layout of the learned maps. (The
// random scorer places every job right by chance on some seeds, so it is
// matched, not beaten.)
func TestSchedAblation(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		f, err := SchedAblation(seed)
		if err != nil {
			t.Fatal(err)
		}
		s := f.Summary

		vMap := s["violations_map"]
		vRandom := s["violations_random"]
		vStatic := s["violations_crossapp"]
		if vStatic == 0 {
			t.Fatalf("seed %d: static cross-app produced no violations; the scenario does not discriminate", seed)
		}
		if vMap >= vStatic {
			t.Errorf("seed %d: map violations %.0f >= static cross-app %.0f", seed, vMap, vStatic)
		}
		if vMap > vRandom {
			t.Errorf("seed %d: map violations %.0f > random %.0f", seed, vMap, vRandom)
		}

		// Equal offered load, and the map variant converts all of it: every
		// job finishes, no safety-net throttling. The baselines'
		// misplacements cost them throughput — the safety net throttles the
		// co-locations they create — so map work must be at least as high
		// as either baseline's.
		if s["finished_map"] != 4 {
			t.Errorf("seed %d: finished_map = %.0f, want 4", seed, s["finished_map"])
		}
		if s["throttled_map"] != 0 {
			t.Errorf("seed %d: map placement still needed %.0f throttled periods", seed, s["throttled_map"])
		}
		if s["work_map"] < s["work_random"] || s["work_map"] < s["work_crossapp"] {
			t.Errorf("seed %d: map batch work %.0f below a baseline (random %.0f, crossapp %.0f)",
				seed, s["work_map"], s["work_random"], s["work_crossapp"])
		}
	}
}

// TestSchedAblationReproducible pins the fixed-seed determinism the
// EXPERIMENTS.md numbers rely on.
func TestSchedAblationReproducible(t *testing.T) {
	a, err := SchedAblation(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SchedAblation(42)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a.Summary {
		if b.Summary[k] != v {
			t.Fatalf("summary %q differs across runs: %v vs %v", k, v, b.Summary[k])
		}
	}
	if a.Text != b.Text {
		t.Fatal("rendered text differs across runs")
	}
}
