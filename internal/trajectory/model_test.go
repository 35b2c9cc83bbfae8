package trajectory

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mds"
)

func mustModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(DefaultModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelConfigValidation(t *testing.T) {
	base := DefaultModelConfig()
	tests := []struct {
		name   string
		mutate func(*ModelConfig)
	}{
		{"zero MaxStep", func(c *ModelConfig) { c.MaxStep = 0 }},
		{"zero distance bins", func(c *ModelConfig) { c.DistanceBins = 0 }},
		{"zero angle bins", func(c *ModelConfig) { c.AngleBins = 0 }},
		{"zero min obs", func(c *ModelConfig) { c.MinObservations = 0 }},
		{"tiny window", func(c *ModelConfig) { c.Window = 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := NewModel(cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestModelColdStart(t *testing.T) {
	m := mustModel(t)
	if m.Ready() || m.Count() != 0 {
		t.Fatalf("fresh model ready=%v count=%d", m.Ready(), m.Count())
	}
	s := m.SampleStep(rand.New(rand.NewSource(1)))
	if s.Distance != 0 {
		t.Errorf("cold-start sample = %+v, want zero step", s)
	}
}

func TestModelBootstrapBeforeReady(t *testing.T) {
	m := mustModel(t)
	obs := Step{Distance: 0.5, Angle: 1.0}
	m.Observe(obs)
	m.Observe(Step{Distance: 0.7, Angle: -1.0})
	if m.Ready() {
		t.Fatal("2 observations should not be Ready (min 8)")
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		s := m.SampleStep(rng)
		if s != obs && s != (Step{Distance: 0.7, Angle: -1.0}) {
			t.Fatalf("bootstrap sample %+v not among observations", s)
		}
	}
}

func TestModelHistogramSamplingAfterReady(t *testing.T) {
	m := mustModel(t)
	// Feed a tight distribution: distances ≈0.3, angles ≈π/2.
	for i := 0; i < 50; i++ {
		m.Observe(Step{Distance: 0.3, Angle: math.Pi / 2})
	}
	if !m.Ready() {
		t.Fatal("model should be ready")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		s := m.SampleStep(rng)
		if math.Abs(s.Distance-0.3) > 0.1 {
			t.Errorf("sampled distance %v far from 0.3", s.Distance)
		}
		if math.Abs(s.Angle-math.Pi/2) > 0.2 {
			t.Errorf("sampled angle %v far from π/2", s.Angle)
		}
	}
}

func TestModelZeroStepsDoNotBiasAngles(t *testing.T) {
	m := mustModel(t)
	// Many pauses plus a few eastward moves: the angle pdf must not
	// accumulate mass at 0 from the pauses... (pauses have angle 0 by
	// convention but carry no direction).
	for i := 0; i < 30; i++ {
		m.Observe(Step{})
	}
	for i := 0; i < 10; i++ {
		m.Observe(Step{Distance: 0.2, Angle: math.Pi / 2})
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		s := m.SampleStep(rng)
		if s.Distance > 0.05 && math.Abs(s.Angle-math.Pi/2) > 0.3 {
			t.Errorf("angle %v should concentrate at π/2", s.Angle)
		}
	}
}

func TestModelWindowBounded(t *testing.T) {
	cfg := DefaultModelConfig()
	cfg.Window = 4
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m.Observe(Step{Distance: float64(i)})
	}
	recent := m.Recent()
	if len(recent) != 4 {
		t.Fatalf("recent = %d, want 4", len(recent))
	}
	// Oldest retained is step 6.
	if recent[0].Distance != 6 || recent[3].Distance != 9 {
		t.Errorf("recent window = %v", recent)
	}
}

func TestModelPredictFrom(t *testing.T) {
	m := mustModel(t)
	for i := 0; i < 20; i++ {
		m.Observe(Step{Distance: 0.5, Angle: 0}) // always east
	}
	cur := mds.Coord{X: 1, Y: 1}
	preds := make([]mds.Coord, 5)
	m.PredictInto(preds, cur, rand.New(rand.NewSource(5)))
	for _, p := range preds {
		if p.X <= cur.X {
			t.Errorf("prediction %v should move east of %v", p, cur)
		}
		if math.Abs(p.Y-cur.Y) > 0.2 {
			t.Errorf("prediction %v should stay near y=1", p)
		}
	}
}

func TestModelBias(t *testing.T) {
	m := mustModel(t)
	for i := 0; i < 30; i++ {
		m.Observe(Step{Distance: 1.8, Angle: 3}) // long steps, high angles
	}
	dSkew, aSkew := m.Bias()
	if dSkew <= 0.9 || aSkew <= 0.9 {
		t.Errorf("bias = %v,%v; want strongly positive", dSkew, aSkew)
	}
}

func TestModelPDFExports(t *testing.T) {
	m := mustModel(t)
	for i := 0; i < 20; i++ {
		m.Observe(Step{Distance: 0.4, Angle: 1})
	}
	xs, ys := m.DistancePDF(50)
	if len(xs) != 50 || len(ys) != 50 {
		t.Fatalf("pdf grid = %d,%d", len(xs), len(ys))
	}
	// Density should peak near the observed distance.
	var peakX float64
	var peakY float64
	for i := range xs {
		if ys[i] > peakY {
			peakX, peakY = xs[i], ys[i]
		}
	}
	if math.Abs(peakX-0.4) > 0.2 {
		t.Errorf("distance pdf peak at %v, want ≈0.4", peakX)
	}
	axs, ays := m.AnglePDF(50)
	if len(axs) != 50 || len(ays) != 50 {
		t.Fatalf("angle pdf grid = %d,%d", len(axs), len(ays))
	}
}

func TestModeModelsDispatch(t *testing.T) {
	mm, err := NewModeModels(DefaultModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Observe east-moves in co-located mode only.
	for i := 0; i < 20; i++ {
		if err := mm.Observe(ModeColocated, Step{Distance: 0.5, Angle: 0}); err != nil {
			t.Fatal(err)
		}
	}
	colo, err := mm.ModelFor(ModeColocated)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := mm.ModelFor(ModeIdle)
	if err != nil {
		t.Fatal(err)
	}
	if colo.Count() != 20 || idle.Count() != 0 {
		t.Errorf("counts: colocated=%d idle=%d", colo.Count(), idle.Count())
	}
	preds := make([]mds.Coord, 3)
	if err := mm.PredictInto(preds, ModeColocated, mds.Coord{}, rand.New(rand.NewSource(1))); err != nil {
		t.Errorf("predict: %v", err)
	}
	for _, p := range preds {
		if p.X <= 0 {
			t.Errorf("co-located prediction %v should move east", p)
		}
	}
	if err := mm.Observe(Mode(9), Step{}); err == nil {
		t.Error("invalid mode should error")
	}
	if err := mm.PredictInto(make([]mds.Coord, 1), Mode(-1), mds.Coord{}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid mode predict should error")
	}
}

func TestSingleModelSharesAcrossModes(t *testing.T) {
	mm, err := NewSingleModel(DefaultModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := mm.Observe(ModeColocated, Step{Distance: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := mm.Observe(ModeIdle, Step{Distance: 0.1}); err != nil {
		t.Fatal(err)
	}
	m, err := mm.ModelFor(ModeSensitiveOnly)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != 2 {
		t.Errorf("single model count = %d, want 2 (all modes shared)", m.Count())
	}
}

// The paper's rationale for per-mode models: mixing two modes with very
// different trajectories degrades prediction versus per-mode separation.
func TestPerModeBeatsSingleModelOnMixedTrajectories(t *testing.T) {
	cfg := DefaultModelConfig()
	perMode, err := NewModeModels(cfg)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewSingleModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sensitive-only: tiny steps north. Co-located: long steps east.
	for i := 0; i < 100; i++ {
		sStep := Step{Distance: 0.05, Angle: math.Pi / 2}
		cStep := Step{Distance: 1.0, Angle: 0}
		if err := perMode.Observe(ModeSensitiveOnly, sStep); err != nil {
			t.Fatal(err)
		}
		if err := perMode.Observe(ModeColocated, cStep); err != nil {
			t.Fatal(err)
		}
		if err := single.Observe(ModeSensitiveOnly, sStep); err != nil {
			t.Fatal(err)
		}
		if err := single.Observe(ModeColocated, cStep); err != nil {
			t.Fatal(err)
		}
	}
	// Truth: next sensitive-only step is (0.05, π/2).
	truth := Step{Distance: 0.05, Angle: math.Pi / 2}.Destination(mds.Coord{})
	evalErr := func(mm *ModeModels, seed int64) float64 {
		preds := make([]mds.Coord, 20)
		if err := mm.PredictInto(preds, ModeSensitiveOnly, mds.Coord{}, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, p := range preds {
			sum += p.Dist(truth)
		}
		return sum / float64(len(preds))
	}
	pm := evalErr(perMode, 7)
	sm := evalErr(single, 7)
	if pm >= sm {
		t.Errorf("per-mode error %v should beat single-model error %v", pm, sm)
	}
}
