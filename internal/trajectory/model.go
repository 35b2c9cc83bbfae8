package trajectory

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mds"
	"repro/internal/stats"
)

// ModelConfig tunes a per-mode trajectory model.
type ModelConfig struct {
	// MaxStep is the largest step length representable in the distance
	// histogram. Steps beyond it clamp into the top bin. In a normalized
	// metric space with extent ~1 per dimension, 2.0 is generous.
	MaxStep float64
	// DistanceBins and AngleBins set histogram granularity.
	DistanceBins int
	AngleBins    int
	// MinObservations is how many steps must be seen before the model
	// trusts its histograms; below it, sampling falls back to bootstrap
	// resampling of the raw steps observed so far.
	MinObservations int
	// Window bounds how many recent raw steps are retained for the
	// bootstrap fallback and the walk classifier.
	Window int
}

// DefaultModelConfig returns the configuration used by the prototype.
func DefaultModelConfig() ModelConfig {
	return ModelConfig{
		MaxStep:         2.0,
		DistanceBins:    32,
		AngleBins:       36, // 10° resolution
		MinObservations: 8,
		Window:          128,
	}
}

func (c ModelConfig) validate() error {
	if c.MaxStep <= 0 {
		return fmt.Errorf("trajectory: MaxStep must be positive, got %v", c.MaxStep)
	}
	if c.DistanceBins < 1 || c.AngleBins < 1 {
		return fmt.Errorf("trajectory: bins must be positive, got %d/%d", c.DistanceBins, c.AngleBins)
	}
	if c.MinObservations < 1 {
		return fmt.Errorf("trajectory: MinObservations must be positive, got %d", c.MinObservations)
	}
	if c.Window < 2 {
		return fmt.Errorf("trajectory: Window must be at least 2, got %d", c.Window)
	}
	return nil
}

// Model is the empirical trajectory model for one execution mode: the pdfs
// of step distance and absolute angle, estimated as histograms (§3.2.3).
type Model struct {
	cfg       ModelConfig
	distHist  *stats.Histogram
	angleHist *stats.Histogram
	recent    []Step // ring of most recent steps, oldest first
	count     int    // total steps observed
}

// NewModel returns an empty model for one execution mode.
func NewModel(cfg ModelConfig) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dh, err := stats.NewHistogram(0, cfg.MaxStep, cfg.DistanceBins)
	if err != nil {
		return nil, err
	}
	ah, err := stats.NewHistogram(-math.Pi, math.Pi, cfg.AngleBins)
	if err != nil {
		return nil, err
	}
	return &Model{cfg: cfg, distHist: dh, angleHist: ah}, nil
}

// Observe records one step.
func (m *Model) Observe(s Step) {
	m.distHist.Add(s.Distance)
	if s.Distance > 0 {
		// Zero-length steps carry no direction; feeding their
		// conventional angle 0 would bias the angle pdf.
		m.angleHist.Add(s.Angle)
	}
	if len(m.recent) == m.cfg.Window {
		copy(m.recent, m.recent[1:])
		m.recent[len(m.recent)-1] = s
	} else {
		m.recent = append(m.recent, s)
	}
	m.count++
}

// Count returns how many steps the model has observed.
func (m *Model) Count() int { return m.count }

// Ready reports whether enough steps have been seen to trust the
// histograms.
func (m *Model) Ready() bool { return m.count >= m.cfg.MinObservations }

// Recent returns a copy of the retained recent steps, oldest first.
func (m *Model) Recent() []Step { return append([]Step(nil), m.recent...) }

// SampleStep draws one (d, α) pair: inverse-transform sampling from the
// histograms once the model is Ready, bootstrap resampling of raw steps
// before that, and a conservative zero step with no history at all.
func (m *Model) SampleStep(rng *rand.Rand) Step {
	if m.count == 0 {
		return Step{}
	}
	if !m.Ready() {
		return m.recent[rng.Intn(len(m.recent))]
	}
	d := m.distHist.InverseCDF(rng.Float64())
	a := m.angleHist.InverseCDF(rng.Float64())
	return Step{Distance: d, Angle: stats.NormalizeAngle(a)}
}

// PredictInto fills dst with candidate future positions from cur: "a
// random set of samples are then generated following the histogram using
// the inverse transform method... this allows us to predict a set of new
// states around the current state and models the uncertainty in the likely
// position of the future state" (§3.2.3). The caller owns dst, so a
// forecast that reuses one buffer allocates nothing.
func (m *Model) PredictInto(dst []mds.Coord, cur mds.Coord, rng *rand.Rand) {
	for i := range dst {
		dst[i] = m.SampleStep(rng).Destination(cur)
	}
}

// DistancePDF exposes the smoothed step-length density for figures
// (Fig 5's per-mode pdf plots).
func (m *Model) DistancePDF(points int) (xs, ys []float64) {
	k := stats.NewKDEFromHistogram(m.distHist, 0)
	return k.Grid(0, m.cfg.MaxStep, points)
}

// AnglePDF exposes the smoothed angle density for figures.
func (m *Model) AnglePDF(points int) (xs, ys []float64) {
	k := stats.NewKDEFromHistogram(m.angleHist, 0)
	return k.Grid(-math.Pi, math.Pi, points)
}

// Bias reports the skew indices of the distance and angle histograms. The
// paper: "the skew in the distribution indicates that the trajectory is
// biased and not random... this helps model the prediction with high
// accuracy."
func (m *Model) Bias() (distSkew, angleSkew float64) {
	return m.distHist.SkewIndex(), m.angleHist.SkewIndex()
}

// ModeModels dispatches observations and predictions to the per-mode model
// matching the current execution mode. SingleModel collapses all modes
// into one model — the configuration the paper reports as inaccurate,
// retained for the ablation benchmark.
type ModeModels struct {
	cfg         ModelConfig
	models      [NumModes]*Model
	singleModel bool
}

// NewModeModels builds one model per execution mode.
func NewModeModels(cfg ModelConfig) (*ModeModels, error) {
	mm := &ModeModels{cfg: cfg}
	for i := range mm.models {
		m, err := NewModel(cfg)
		if err != nil {
			return nil, err
		}
		mm.models[i] = m
	}
	return mm, nil
}

// NewSingleModel builds the ablation variant where every mode shares one
// model.
func NewSingleModel(cfg ModelConfig) (*ModeModels, error) {
	mm, err := NewModeModels(cfg)
	if err != nil {
		return nil, err
	}
	mm.singleModel = true
	return mm, nil
}

// Observe records a step under the given mode.
func (mm *ModeModels) Observe(mode Mode, s Step) error {
	m, err := mm.ModelFor(mode)
	if err != nil {
		return err
	}
	m.Observe(s)
	return nil
}

// ModelFor returns the model serving the given mode.
func (mm *ModeModels) ModelFor(mode Mode) (*Model, error) {
	if !mode.Valid() {
		return nil, fmt.Errorf("trajectory: invalid mode %v", mode)
	}
	if mm.singleModel {
		return mm.models[0], nil
	}
	return mm.models[mode], nil
}

// PredictInto fills dst with candidate future positions under the given
// mode.
func (mm *ModeModels) PredictInto(dst []mds.Coord, mode Mode, cur mds.Coord, rng *rand.Rand) error {
	m, err := mm.ModelFor(mode)
	if err != nil {
		return err
	}
	m.PredictInto(dst, cur, rng)
	return nil
}
