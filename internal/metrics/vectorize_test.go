package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/race"
)

// oracleRanges covers every kind of metric the two paths treat
// differently: fixed and adaptive ranges inside the schema, a schema metric
// with no range (passes through raw), and a ranged adaptive metric outside
// the schema (observed, never flattened).
func oracleRanges() map[Metric]Range {
	return map[Metric]Range{
		MetricCPU:    {Max: 400},
		MetricMemory: {Max: 1000, Adaptive: true},
		MetricIO:     {Max: 50, Adaptive: true},
		"gpu":        {Max: 10, Adaptive: true},
	}
}

// vectorizerCase is one configuration of the path: §5 aggregation on or
// off, and whether the logical VM's name is itself a batch container.
type vectorizerCase struct {
	name      string
	vms       []string
	logicalVM string
	batchIDs  []string
}

func vectorizerCases() []vectorizerCase {
	return []vectorizerCase{
		{"aggregated", []string{"web", "batch"}, "batch", []string{"b1", "b2", "b3"}},
		{"aggregated, logical VM is a batch container", []string{"web", "batch"}, "batch", []string{"b1", "batch"}},
		{"per-container slots", []string{"web", "b1", "b2", "b3"}, "", []string{"b1", "b2", "b3"}},
	}
}

// referenceVector is the chain the Vectorizer replaces.
func referenceVector(c vectorizerCase, schema *Schema, norm *Normalizer, samples []Sample) ([]float64, error) {
	if c.logicalVM != "" {
		batch := map[string]bool{}
		for _, id := range c.batchIDs {
			batch[id] = true
		}
		samples = AggregateByRole(c.logicalVM, samples, func(vm string) bool { return batch[vm] })
	}
	return schema.Flatten(norm.NormalizeAll(samples))
}

// oracleValue draws a raw value, favouring the awkward ones.
func oracleValue(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return -rng.Float64() * 100
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return 0
	case 6:
		return rng.Float64() * 5000 // stretches the adaptive ranges
	default:
		return rng.Float64() * 300
	}
}

// oracleSample draws one sample; each metric, including two outside the
// schema, is absent with some probability.
func oracleSample(rng *rand.Rand, vm string) Sample {
	s := Sample{VM: vm, Values: map[Metric]float64{}}
	for _, m := range []Metric{MetricCPU, MetricMemory, MetricIO, MetricNetwork, "gpu", "custom"} {
		if rng.Intn(4) != 0 {
			s.Values[m] = oracleValue(rng)
		}
	}
	return s
}

// oracleSamples draws one period's sample set. The first periods of every
// sequence are the named edge cases; the rest are random, mostly valid.
func oracleSamples(rng *rand.Rand, period int) []Sample {
	named := [][]string{
		{"web"},                      // no batch samples
		{},                           // no samples at all
		{"web", "b1", "zzz"},         // unknown VM sorting after every known one
		{"aaa", "web", "web"},        // unknown VM sorting first, plus a duplicate
		{"web", "b2", "web"},         // duplicate sensitive sample
		{"b1", "batch", "web"},       // a sample named like the logical VM
		{"zzz", "web", "web", "b1"},  // two failures, input order ≠ name order
		{"b3", "b1", "web", "b2"},    // every batch container, out of order
		{"batch", "batch", "b1"},     // the logical name twice
		{"web", "b1", "b1", "ghost"}, // duplicate batch container
	}
	var vms []string
	if period < len(named) {
		vms = named[period]
	} else {
		pool := []string{"web", "b1", "b2", "b3"}
		rare := []string{"batch", "ghost", "aaa", "zzz"}
		for n := rng.Intn(6); n > 0; n-- {
			if rng.Intn(8) == 0 {
				vms = append(vms, rare[rng.Intn(len(rare))])
			} else {
				vms = append(vms, pool[rng.Intn(len(pool))])
			}
		}
	}
	out := make([]Sample, len(vms))
	for i, vm := range vms {
		out[i] = oracleSample(rng, vm)
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestVectorizerMatchesChain drives the Vectorizer and the
// AggregateByRole → NormalizeAll → Flatten chain over the same random
// periods, each with its own normalizer, and requires the same vector bit
// for bit, the same ranges afterwards, and the same error.
func TestVectorizerMatchesChain(t *testing.T) {
	for _, c := range vectorizerCases() {
		t.Run(c.name, func(t *testing.T) {
			schema, err := NewSchema(c.vms, DefaultMetrics())
			if err != nil {
				t.Fatal(err)
			}
			for seq := int64(0); seq < 40; seq++ {
				rng := rand.New(rand.NewSource(seq))
				refNorm, err := NewNormalizer(oracleRanges())
				if err != nil {
					t.Fatal(err)
				}
				norm, err := NewNormalizer(oracleRanges())
				if err != nil {
					t.Fatal(err)
				}
				vz, err := NewVectorizer(schema, norm, c.logicalVM, c.batchIDs)
				if err != nil {
					t.Fatal(err)
				}
				for period := 0; period < 60; period++ {
					samples := oracleSamples(rng, period)
					want, wantErr := referenceVector(c, schema, refNorm, samples)
					got, gotErr := vz.Vector(samples)
					where := fmt.Sprintf("seq %d period %d %v", seq, period, sampleVMs(samples))
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: error %v, chain %v", where, gotErr, wantErr)
					}
					if wantErr == nil && !sameBits(got, want) {
						t.Fatalf("%s: vector %v, chain %v", where, got, want)
					}
					gotR, wantR := norm.Snapshot(), refNorm.Snapshot()
					for m, w := range wantR {
						if g := gotR[m]; math.Float64bits(g.Max) != math.Float64bits(w.Max) || g.Adaptive != w.Adaptive {
							t.Fatalf("%s: range %s %+v, chain %+v", where, m, g, w)
						}
					}
				}
			}
		})
	}
}

func sampleVMs(samples []Sample) []string {
	vms := make([]string, len(samples))
	for i, s := range samples {
		vms[i] = s.VM
	}
	return vms
}

func TestNewVectorizerRejectsLogicalVMOutsideSchema(t *testing.T) {
	schema, err := NewSchema([]string{"web", "b1"}, DefaultMetrics())
	if err != nil {
		t.Fatal(err)
	}
	norm, err := NewNormalizer(oracleRanges())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewVectorizer(schema, norm, "batch", []string{"b1"}); err == nil {
		t.Error("a logical VM the schema lacks should be rejected")
	}
}

func TestVectorizerAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, c := range vectorizerCases() {
		schema, err := NewSchema(c.vms, DefaultMetrics())
		if err != nil {
			t.Fatal(err)
		}
		norm, err := NewNormalizer(oracleRanges())
		if err != nil {
			t.Fatal(err)
		}
		vz, err := NewVectorizer(schema, norm, c.logicalVM, c.batchIDs)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		samples := []Sample{oracleSample(rng, "b1"), oracleSample(rng, "web")}
		n := testing.AllocsPerRun(100, func() {
			if _, err := vz.Vector(samples); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("%s: Vector allocates %v times per period, want 0", c.name, n)
		}
	}
}
