// Package predictor combines the state space with the per-mode trajectory
// models to answer Stay-Away's per-period question (§3.2): is the execution
// progressing toward a QoS violation? It generates a handful of candidate
// future states by inverse-transform sampling (5 in the paper) and votes
// them against the current violation-ranges: "whenever a majority of the
// generated sample set fall within a violation range, Stay-Away takes an
// action to prevent degradation."
package predictor

import (
	"fmt"
	"math/rand"

	"repro/internal/mds"
	"repro/internal/statespace"
	"repro/internal/trajectory"
)

// Config tunes the predictor.
type Config struct {
	// Samples is how many candidate future states are drawn per period.
	// The paper uses 5: "with 5 samples to model uncertainty, we are able
	// to achieve more than 90% accuracy on average".
	Samples int
	// MajorityFraction is the fraction of candidates that must land inside
	// a violation-range to predict a violation. 0.5 reproduces the paper's
	// majority vote.
	MajorityFraction float64
}

// DefaultConfig returns the paper's settings: 5 samples, majority vote.
func DefaultConfig() Config {
	return Config{Samples: 5, MajorityFraction: 0.5}
}

func (c Config) validate() error {
	if c.Samples < 1 {
		return fmt.Errorf("predictor: Samples must be positive, got %d", c.Samples)
	}
	if c.MajorityFraction <= 0 || c.MajorityFraction > 1 {
		return fmt.Errorf("predictor: MajorityFraction must be in (0,1], got %v", c.MajorityFraction)
	}
	return nil
}

// Decision is the outcome of one prediction period.
type Decision struct {
	// Mode is the execution mode the prediction was made under.
	Mode trajectory.Mode
	// Candidates are the sampled future positions. The slice is the
	// predictor's own draw buffer: it is valid until the next Predict on
	// the same Predictor, which overwrites it. Copy it to keep it.
	Candidates []mds.Coord
	// Hits counts candidates inside some violation-range.
	Hits int
	// WillViolate is the majority verdict.
	WillViolate bool
	// Disc is the violation-range hit by the first offending candidate
	// (zero value when WillViolate is false).
	Disc statespace.Disc
}

// Predictor draws future states and votes them against violation ranges.
type Predictor struct {
	cfg    Config
	models *trajectory.ModeModels
	rng    *rand.Rand
	// drawn holds Config.Samples candidates, redrawn by every Predict.
	drawn []mds.Coord
}

// New returns a predictor using the given per-mode trajectory models and
// random source.
func New(cfg Config, models *trajectory.ModeModels, rng *rand.Rand) (*Predictor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if models == nil {
		return nil, fmt.Errorf("predictor: nil trajectory models")
	}
	if rng == nil {
		return nil, fmt.Errorf("predictor: nil RNG")
	}
	return &Predictor{cfg: cfg, models: models, rng: rng, drawn: make([]mds.Coord, cfg.Samples)}, nil
}

// Config returns the predictor's configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Predict evaluates the current period: from position cur under the given
// execution mode, sample candidate next states and test them against the
// space's violation-ranges.
//
// Prediction is skipped (no violation) when the space has no
// violation-states yet — with nothing learned, throttling would be the
// "overly aggressive" extreme of §3.2's exploration/prevention trade-off.
// The returned Decision.Candidates is valid until the next Predict.
func (p *Predictor) Predict(space *statespace.Space, mode trajectory.Mode, cur mds.Coord) (Decision, error) {
	d := Decision{Mode: mode}
	if space == nil {
		return d, fmt.Errorf("predictor: nil space")
	}
	if !space.HasViolations() {
		return d, nil
	}
	if err := p.models.PredictInto(p.drawn, mode, cur, p.rng); err != nil {
		return d, err
	}
	candidates := p.drawn
	d.Candidates = candidates
	for _, c := range candidates {
		if disc, in := space.InViolationRange(c); in {
			d.Hits++
			if d.Hits == 1 {
				d.Disc = disc
			}
		}
	}
	need := int(float64(len(candidates))*p.cfg.MajorityFraction) + 1
	if need > len(candidates) {
		need = len(candidates)
	}
	d.WillViolate = d.Hits >= need
	return d, nil
}
