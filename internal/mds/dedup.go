package mds

// Representative-sample reduction (§4): "we significantly reduce this
// overhead by choosing one representative sample from the set of samples
// that are very close to each other (Euclidean distance) and discarding
// other similar samples." The reduction keeps SMACOF's quadratic cost
// bounded by the number of *distinct* system states rather than the number
// of monitoring periods.

// OnlineReducer maintains the representative set across periods, so
// per-period cost stays proportional to the number of distinct states. A
// sample merges into the first representative within epsilon (Euclidean)
// of it; otherwise it becomes a representative itself. The reduction is
// therefore deterministic and order-stable, and every representative is
// an observed state (never a synthetic average), which keeps violation
// labels attached to real measurements. epsilon <= 0 disables merging.
type OnlineReducer struct {
	epsilon float64
	reps    [][]float64
	weights []int
}

// NewOnlineReducer returns a reducer with the given merge threshold.
func NewOnlineReducer(epsilon float64) *OnlineReducer {
	return &OnlineReducer{epsilon: epsilon}
}

// Observe registers a sample, returning the representative index it maps
// to and whether a new representative was created.
func (o *OnlineReducer) Observe(sample []float64) (rep int, created bool) {
	if o.epsilon > 0 {
		for j, r := range o.reps {
			if Euclidean(sample, r) <= o.epsilon {
				o.weights[j]++
				return j, false
			}
		}
	}
	cp := append([]float64(nil), sample...)
	o.reps = append(o.reps, cp)
	o.weights = append(o.weights, 1)
	return len(o.reps) - 1, true
}

// Len returns the number of representatives.
func (o *OnlineReducer) Len() int { return len(o.reps) }

// Representative returns representative i (not a copy; callers must not
// modify it).
func (o *OnlineReducer) Representative(i int) []float64 { return o.reps[i] }

// Representatives returns the underlying representative set (shared, not
// copied) for distance-matrix construction.
func (o *OnlineReducer) Representatives() [][]float64 { return o.reps }

// Weight returns how many observations representative i has absorbed.
func (o *OnlineReducer) Weight(i int) int { return o.weights[i] }
