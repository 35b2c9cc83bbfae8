package metrics

import "fmt"

// Vectorizer is one lane's per-period measurement path in a single pass
// over the samples: §5 role aggregation, §4 adaptive-range observation and
// normalization, and flattening in schema order, written into a vector the
// Vectorizer owns. It computes
//
//	schema.Flatten(norm.NormalizeAll(AggregateByRole(logicalVM, samples, isBatch)))
//
// — or schema.Flatten(norm.NormalizeAll(samples)) without aggregation — bit
// for bit, leaves the normalizer's ranges where that chain leaves them,
// fails with the error it fails with, and allocates nothing when it
// succeeds. A Vectorizer is not safe for concurrent use.
type Vectorizer struct {
	schema *Schema
	norm   *Normalizer
	// batch holds the containers summed into the logical VM at logicalPos;
	// nil keeps every VM in its own slot.
	batch      map[string]bool
	logicalPos int

	vec  []float64
	seen []int // samples landed per schema VM this period
}

// NewVectorizer builds the path over schema and norm. With a non-empty
// logicalVM, which the schema must contain, the samples of batchIDs are
// aggregated into it; with an empty one every sample keeps its own slot.
func NewVectorizer(schema *Schema, norm *Normalizer, logicalVM string, batchIDs []string) (*Vectorizer, error) {
	v := &Vectorizer{
		schema: schema,
		norm:   norm,
		vec:    make([]float64, schema.Dim()),
		seen:   make([]int, len(schema.vms)),
	}
	if logicalVM == "" {
		return v, nil
	}
	pos, ok := schema.index[logicalVM]
	if !ok {
		return nil, fmt.Errorf("metrics: logical VM %q not in schema", logicalVM)
	}
	v.logicalPos = pos
	v.batch = make(map[string]bool, len(batchIDs))
	for _, id := range batchIDs {
		v.batch[id] = true
	}
	return v, nil
}

// Vector maps one period's samples to its normalized measurement vector.
// The vector is the Vectorizer's own and valid until the next call.
func (v *Vectorizer) Vector(samples []Sample) ([]float64, error) {
	ms := v.schema.metrics
	nm := len(ms)
	clear(v.vec)
	clear(v.seen)
	if v.batch != nil {
		// The logical VM is always there: with no batch sample it is the
		// zero-usage aggregate of nothing.
		v.seen[v.logicalPos] = 1
		v.norm.observeSum(samples, v.batch)
	}
	// Every sample is observed before any is normalized, as NormalizeAll
	// does, even when one cannot be placed. The chain reports the first
	// such sample it meets: the first in input order, or — AggregateByRole
	// sorts — the least VM name.
	var bad string
	var badKnown, failed bool
	for _, s := range samples {
		if v.batch[s.VM] {
			row := v.vec[v.logicalPos*nm : (v.logicalPos+1)*nm]
			for i, m := range ms {
				row[i] += s.Values[m]
			}
			continue
		}
		v.norm.Observe(s)
		pos, known := v.schema.index[s.VM]
		if known {
			v.seen[pos]++
		}
		if !known || v.seen[pos] > 1 {
			if !failed || (v.batch != nil && s.VM < bad) {
				failed, bad, badKnown = true, s.VM, known
			}
			continue
		}
		row := v.vec[pos*nm : (pos+1)*nm]
		for i, m := range ms {
			row[i] = s.Values[m]
		}
	}
	if failed {
		return nil, badSample(bad, badKnown)
	}
	for i, x := range v.vec {
		v.vec[i] = v.norm.scale(ms[i%nm], x)
	}
	return v.vec, nil
}
