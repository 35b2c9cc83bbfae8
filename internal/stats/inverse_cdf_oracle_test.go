package stats

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/race"
)

// inverseCDFRef is the walk InverseCDF performed before it stopped
// building the CDF slice: the exact computation the in-place walk must
// reproduce bit for bit.
func inverseCDFRef(h *Histogram, u float64) float64 {
	u = Clamp(u, 0, 1)
	cdf := h.CDF()
	w := h.BinWidth()
	prev := 0.0
	for i, c := range cdf {
		if c <= prev {
			continue
		}
		if u <= c {
			frac := (u - prev) / (c - prev)
			return h.lo + (float64(i)+frac)*w
		}
		prev = c
	}
	return h.hi
}

func TestInverseCDFMatchesCDFWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	type fixture struct {
		name string
		h    *Histogram
	}
	var fixtures []fixture
	add := func(name string, lo, hi float64, bins int, fill func(h *Histogram)) {
		h := mustHistogram(t, lo, hi, bins)
		fill(h)
		fixtures = append(fixtures, fixture{name, h})
	}
	none := func(*Histogram) {}
	add("empty one bin", 0, 1, 1, none)
	add("empty many bins", -math.Pi, math.Pi, 36, none)
	add("single bin", 0, 2, 1, func(h *Histogram) { h.Add(0.7); h.Add(1.9) })
	add("one heavy bin", 0, 2, 32, func(h *Histogram) { h.AddWeighted(1.01, 3) })
	add("zero-mass interior", 0, 10, 10, func(h *Histogram) { h.Add(0.5); h.Add(9.5) })
	add("zero-mass leading and trailing", 0, 10, 10, func(h *Histogram) { h.Add(4.5); h.Add(5.5) })
	add("clamped outliers", 0, 1, 8, func(h *Histogram) { h.Add(-3); h.Add(7); h.Add(0.5) })
	for k := 0; k < 20; k++ {
		bins := 1 + rng.Intn(40)
		add("random", 0, 2, bins, func(h *Histogram) {
			for i := rng.Intn(200); i > 0; i-- {
				if rng.Intn(3) == 0 {
					continue // leaves some bins without mass
				}
				h.AddWeighted(rng.Float64()*2.2-0.1, rng.ExpFloat64())
			}
		})
	}
	// A checkpoint may carry a total a little off the bins' sum: the
	// pinned last bin is what keeps the walk inside the range then.
	drift, err := HistogramFromSnapshot(HistogramSnapshot{
		Lo: 0, Hi: 1, Counts: []float64{0.1, 0, 0.2, 0.3}, Total: 0.6 * (1 + 1e-9)})
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, fixture{"drifted total", drift})

	us := []float64{0, 1, 1 - 1e-16, math.Nextafter(1, 0), math.SmallestNonzeroFloat64,
		0.5, -0.25, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := 0; i < 200; i++ {
		us = append(us, rng.Float64())
	}
	for _, f := range fixtures {
		cdf := f.h.CDF()
		for _, c := range cdf {
			us = append(us, c) // land exactly on a bin edge
		}
		for _, u := range us {
			got, want := f.h.InverseCDF(u), inverseCDFRef(f.h, u)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: InverseCDF(%v) = %v, CDF walk %v", f.name, u, got, want)
			}
		}
		us = us[:len(us)-len(cdf)]
	}
}

func TestInverseCDFAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	h := mustHistogram(t, 0, 2, 32)
	for i := 0; i < 50; i++ {
		h.Add(float64(i) / 25)
	}
	u := 0.0
	if n := testing.AllocsPerRun(100, func() { u += h.InverseCDF(0.37) }); n != 0 {
		t.Errorf("InverseCDF allocates %v times per draw, want 0", n)
	}
}
