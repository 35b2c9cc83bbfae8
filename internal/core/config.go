// Package core assembles the Stay-Away runtime: the per-period
// Mapping → Prediction → Action loop of §3 that turns raw per-container
// usage samples into a 2-D state space, predicts transitions toward
// learned violation-states, and throttles batch applications before the
// violation materializes.
package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/statespace"
	"repro/internal/throttle"
	"repro/internal/trajectory"
)

// Config assembles a Runtime.
type Config struct {
	// SensitiveID is the container ID of the latency-sensitive
	// application.
	SensitiveID string
	// BatchIDs are the batch containers; they are aggregated into one
	// logical VM (§5) and throttled collectively.
	BatchIDs []string
	// LogicalBatchVM names the aggregated batch VM in the measurement
	// schema. Defaults to "batch".
	LogicalBatchVM string
	// SensitiveApp is the fleet-wide name of the sensitive *application*
	// (as opposed to SensitiveID, the local container). Templates exported
	// for the registry are keyed by it, so hosts running the same
	// application under different container IDs still share one map.
	// Defaults to SensitiveID.
	SensitiveApp string

	// Ranges configures metric normalization (§4). Required.
	Ranges map[metrics.Metric]metrics.Range

	// DedupEpsilon merges ε-close normalized measurement vectors into one
	// representative state (§4's SMACOF cost optimization). Defaults to
	// 0.03 when 0; negative disables merging.
	DedupEpsilon float64
	// RefreshEvery schedules a full embedding refresh — solved cold from a
	// Torgerson start, then Procrustes-aligned onto the previous layout —
	// after this many newly created states; between refreshes new states
	// are placed incrementally. Defaults to 8 when 0.
	RefreshEvery int
	// LandmarkThreshold switches full-embedding refreshes to landmark MDS
	// (§4's cited fast approximation) once the state space exceeds this
	// many states, using the threshold as the landmark count. From then on
	// the landmark set is kept: new states are placed against it alone, one
	// that falls outside the set's covering radius joins it, and a
	// scheduled refresh re-solves only once the set has doubled. 0 always
	// solves the full problem; DefaultConfig sets 128.
	LandmarkThreshold int

	// Predictor, Trajectory and Throttle tune the subcomponents; zero
	// values take their package defaults.
	Predictor  predictor.Config
	Trajectory trajectory.ModelConfig
	Throttle   throttle.Config

	// RangePolicy overrides how violation-range radii are derived from the
	// nearest-safe-state distance; nil uses the paper's Rayleigh weighting
	// (§3.2.2). Exposed for the range-policy ablation.
	RangePolicy statespace.RangePolicy

	// DisableBatchAggregation gives every batch container its own slot in
	// the measurement schema instead of §5's single logical VM. With many
	// batch containers the vector dimensionality grows and the 2-D
	// embedding distorts ("the best possible configuration in two
	// dimensions may be a poor, highly distorted, representation") —
	// exposed for the aggregation ablation.
	DisableBatchAggregation bool

	// QoSStaleAfter treats the application's QoS signal as stale — not
	// safe — once this many consecutive periods pass without a fresh
	// report (the environment must implement QoSFreshness for silence to
	// be observable). While stale, newly created states are marked
	// unverified so they cannot act as safe-state anchors, and the
	// condition is surfaced in Event.QoSStale / Report.QoSStalePeriods.
	// 0 defaults to 5; negative disables staleness tracking.
	QoSStaleAfter int

	// SingleModel collapses the per-mode trajectory models into one — the
	// configuration the paper shows is inaccurate; exposed for the
	// ablation experiments.
	SingleModel bool
	// DisableActions runs the full Mapping and Prediction pipeline but
	// never actuates — the observe-only mode used for template validation
	// (Fig 18) and for measuring prediction accuracy against ground truth.
	DisableActions bool

	// Seed drives all randomness in the runtime (prediction sampling and
	// the anti-starvation resume).
	Seed int64
}

// DefaultConfig returns a config for one sensitive container and a set of
// batch containers on a host with the given normalization ranges.
func DefaultConfig(sensitiveID string, batchIDs []string, ranges map[metrics.Metric]metrics.Range) Config {
	return Config{
		SensitiveID:       sensitiveID,
		BatchIDs:          batchIDs,
		LogicalBatchVM:    "batch",
		Ranges:            ranges,
		DedupEpsilon:      0.03,
		RefreshEvery:      8,
		LandmarkThreshold: 128,
		Predictor:         predictor.DefaultConfig(),
		Trajectory:        trajectory.DefaultModelConfig(),
		Throttle:          throttle.DefaultConfig(),
		Seed:              1,
	}
}

func (c *Config) applyDefaults() {
	if c.LogicalBatchVM == "" {
		c.LogicalBatchVM = "batch"
	}
	if c.SensitiveApp == "" {
		c.SensitiveApp = c.SensitiveID
	}
	if c.DedupEpsilon == 0 {
		c.DedupEpsilon = 0.03
	}
	if c.RefreshEvery == 0 {
		c.RefreshEvery = 8
	}
	if c.Predictor == (predictor.Config{}) {
		c.Predictor = predictor.DefaultConfig()
	}
	if c.Trajectory == (trajectory.ModelConfig{}) {
		c.Trajectory = trajectory.DefaultModelConfig()
	}
	if c.Throttle == (throttle.Config{}) {
		c.Throttle = throttle.DefaultConfig()
	}
	if c.QoSStaleAfter == 0 {
		c.QoSStaleAfter = 5
	}
}

func (c *Config) validate() error {
	if c.SensitiveID == "" {
		return fmt.Errorf("core: SensitiveID required")
	}
	if len(c.Ranges) == 0 {
		return fmt.Errorf("core: normalization Ranges required")
	}
	if c.SensitiveID == c.LogicalBatchVM {
		return fmt.Errorf("core: SensitiveID %q collides with LogicalBatchVM", c.SensitiveID)
	}
	seenBatch := make(map[string]bool, len(c.BatchIDs))
	for _, id := range c.BatchIDs {
		if id == c.SensitiveID {
			return fmt.Errorf("core: container %q is both sensitive and batch", id)
		}
		if seenBatch[id] {
			// A duplicate batch ID would double-count the container inside
			// the aggregated logical batch VM, skewing every vector.
			return fmt.Errorf("core: duplicate batch container %q", id)
		}
		seenBatch[id] = true
	}
	if c.RefreshEvery < 0 {
		return fmt.Errorf("core: RefreshEvery must be non-negative, got %d", c.RefreshEvery)
	}
	return nil
}

// Environment is what the runtime observes each period. The simulator and
// a real host (cgroups + application callbacks) both satisfy it.
type Environment interface {
	// Collect returns the current per-container usage samples.
	Collect() []metrics.Sample
	// QoSViolation reports whether the sensitive application reported a
	// QoS violation for the period being observed (§3.1: "Stay-Away
	// relies on the application to report whenever a QoS violation
	// happens").
	QoSViolation() bool
	// SensitiveRunning reports whether the sensitive application is
	// actively executing.
	SensitiveRunning() bool
	// BatchRunning reports whether any batch application is actively
	// executing (a frozen batch container is not running).
	BatchRunning() bool
	// BatchActive reports whether any batch application still has work
	// (running or frozen).
	BatchActive() bool
}

// QoSFreshness is an optional Environment extension distinguishing "no
// violation" from "no report": QoSViolation returning false may mean the
// application is healthy — or that its reporting channel went silent
// (crashed reporter, deleted report file, wedged pipe). Environments that
// can tell the difference implement QoSFresh; the runtime then treats
// prolonged silence as stale rather than safe (Config.QoSStaleAfter).
type QoSFreshness interface {
	// QoSFresh reports whether the most recent period had a usable QoS
	// report from the sensitive application.
	QoSFresh() bool
}
