package experiments

import (
	"strings"
	"testing"
)

func TestDiurnalIntensity(t *testing.T) {
	f, err := DiurnalIntensity(7, 100)
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi = 1.0, 0.0
	for tick := 0; tick < 100; tick++ {
		v := f(tick)
		if v < 0 || v > 1 {
			t.Fatalf("intensity(%d) = %v outside [0,1]", tick, v)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo < 0.5 {
		t.Errorf("diurnal swing = %v, want pronounced valleys", hi-lo)
	}
}

func TestFig12Shape(t *testing.T) {
	f, err := Fig12(figSeed)
	if err != nil {
		t.Fatal(err)
	}
	gain := func(batch, kind string) float64 {
		return f.Summary["gain_"+batch+"_"+kind]
	}
	// Twitter's best column is the memory-intensive workload (§7.2).
	if gain("Twitter", "memory-intensive") <= gain("Twitter", "cpu-intensive")*0.9 {
		t.Errorf("Twitter memory gain %v should be its best (cpu column %v)",
			gain("Twitter", "memory-intensive"), gain("Twitter", "cpu-intensive"))
	}
	// MemoryBomb is the only batch app coexisting well with the
	// CPU-intensive workload: its cpu-column gain beats its own memory
	// column and beats CPUBomb's cpu column.
	if gain("MemoryBomb", "cpu-intensive") <= gain("MemoryBomb", "memory-intensive") {
		t.Errorf("MemoryBomb cpu gain %v should beat its memory gain %v",
			gain("MemoryBomb", "cpu-intensive"), gain("MemoryBomb", "memory-intensive"))
	}
	// CPUBomb is the floor against every workload kind vs Twitter.
	for _, kind := range []string{"cpu-intensive", "memory-intensive", "mixed"} {
		if gain("CPUBomb", kind) >= gain("Twitter", kind) {
			t.Errorf("%s: CPUBomb gain %v should trail Twitter %v",
				kind, gain("CPUBomb", kind), gain("Twitter", kind))
		}
	}
	// QoS stays protected across the whole matrix.
	for key, v := range f.Summary {
		if strings.HasPrefix(key, "viol_") && v > 0.15 {
			t.Errorf("%s violation rate = %v, want ≤ 0.15", key, v)
		}
	}
}

func TestFig14To16Protected(t *testing.T) {
	for _, gen := range []func(int64) (*Figure, error){Fig14, Fig15, Fig16} {
		f, err := gen(figSeed)
		if err != nil {
			t.Fatal(err)
		}
		if f.Text == "" {
			t.Errorf("%s: empty rendering", f.ID)
		}
		for key, v := range f.Summary {
			if strings.HasPrefix(key, "viol_") && v > 0.15 {
				t.Errorf("%s %s = %v, want ≤ 0.15", f.ID, key, v)
			}
		}
	}
}

func TestSummarySpread(t *testing.T) {
	f, err := Summary(figSeed)
	if err != nil {
		t.Fatal(err)
	}
	minG, maxG := f.Summary["min_gain"], f.Summary["max_gain"]
	if minG <= 0 || maxG >= 1 || minG >= maxG {
		t.Fatalf("gain spread = [%v, %v]", minG, maxG)
	}
	// The paper claims 10–70%; the reproduced spread must span a
	// comparable band (at least 25 percentage points wide).
	if maxG-minG < 0.25 {
		t.Errorf("spread %v–%v too narrow", minG, maxG)
	}
}
