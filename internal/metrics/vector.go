// Package metrics defines the measurement vectors Stay-Away monitors
// (§3.1): per-VM resource usage snapshots <CPU, memory, I/O, network>
// collected every period, their [0,1] normalization (§4), the logical-VM
// aggregation of multiple batch applications (§5), and the Vectorizer that
// fuses the three into one pass for the per-period loop.
package metrics

import (
	"fmt"
	"sort"
)

// Metric identifies one monitored resource dimension.
type Metric string

// The four metric dimensions from the paper's measurement vector
// M(t) = <VMᵢ-CPU, VMᵢ-Memory, VMᵢ-I/O, VMᵢ-network>. The package does not
// restrict callers to these — "Stay-Away does not impose any limitation on
// the choice of metrics" — but they are the defaults everywhere.
const (
	MetricCPU     Metric = "cpu"     // percent of one core (0..100·cores)
	MetricMemory  Metric = "memory"  // resident MB
	MetricIO      Metric = "io"      // disk MB/s
	MetricNetwork Metric = "network" // network Mb/s
)

// DefaultMetrics is the paper's metric set in canonical order.
func DefaultMetrics() []Metric {
	return []Metric{MetricCPU, MetricMemory, MetricIO, MetricNetwork}
}

// Sample is one VM's (container's) resource usage snapshot at a monitoring
// instant.
type Sample struct {
	// VM identifies the container the snapshot belongs to.
	VM string
	// Values maps metric name to raw (un-normalized) usage.
	Values map[Metric]float64
}

// NewSample returns a Sample for vm with the given values copied.
func NewSample(vm string, values map[Metric]float64) Sample {
	cp := make(map[Metric]float64, len(values))
	for k, v := range values {
		cp[k] = v
	}
	return Sample{VM: vm, Values: cp}
}

// Get returns the value for m, or 0 when absent.
func (s Sample) Get(m Metric) float64 { return s.Values[m] }

// Schema fixes the flattening order of (VM, metric) pairs into a numeric
// vector so that vectors from different periods are comparable
// element-by-element. A schema is immutable after construction.
type Schema struct {
	vms     []string
	metrics []Metric
	index   map[string]int // vm -> position
}

// NewSchema builds a schema over the given logical VM names and metrics.
// VM names are kept in the order given; duplicates are rejected.
func NewSchema(vms []string, metrics []Metric) (*Schema, error) {
	if len(vms) == 0 {
		return nil, fmt.Errorf("metrics: schema needs at least one VM")
	}
	if len(metrics) == 0 {
		return nil, fmt.Errorf("metrics: schema needs at least one metric")
	}
	idx := make(map[string]int, len(vms))
	for i, vm := range vms {
		if vm == "" {
			return nil, fmt.Errorf("metrics: empty VM name at position %d", i)
		}
		if _, dup := idx[vm]; dup {
			return nil, fmt.Errorf("metrics: duplicate VM name %q", vm)
		}
		idx[vm] = i
	}
	return &Schema{
		vms:     append([]string(nil), vms...),
		metrics: append([]Metric(nil), metrics...),
		index:   idx,
	}, nil
}

// Dim returns the flattened vector dimension: len(vms) × len(metrics).
func (s *Schema) Dim() int { return len(s.vms) * len(s.metrics) }

// VMs returns the schema's VM names in order.
func (s *Schema) VMs() []string { return append([]string(nil), s.vms...) }

// Metrics returns the schema's metrics in order.
func (s *Schema) Metrics() []Metric { return append([]Metric(nil), s.metrics...) }

// Label returns a human-readable label for vector position i, e.g.
// "web/cpu".
func (s *Schema) Label(i int) string {
	nm := len(s.metrics)
	return fmt.Sprintf("%s/%s", s.vms[i/nm], s.metrics[i%nm])
}

// Flatten converts per-VM samples into a vector ordered by the schema.
// Samples for VMs not in the schema are rejected; missing VMs flatten as
// zeros (a container that is not running uses nothing).
func (s *Schema) Flatten(samples []Sample) ([]float64, error) {
	out := make([]float64, s.Dim())
	nm := len(s.metrics)
	seen := make(map[string]bool, len(samples))
	for _, smp := range samples {
		pos, ok := s.index[smp.VM]
		if !ok || seen[smp.VM] {
			return nil, badSample(smp.VM, ok)
		}
		seen[smp.VM] = true
		for mi, m := range s.metrics {
			out[pos*nm+mi] = smp.Get(m)
		}
	}
	return out, nil
}

// badSample is the error for a sample that cannot be flattened: one for a
// VM the schema does not know, or a second one for a VM it does.
func badSample(vm string, known bool) error {
	if known {
		return fmt.Errorf("metrics: duplicate sample for VM %q", vm)
	}
	return fmt.Errorf("metrics: sample for unknown VM %q", vm)
}

// SortSamples orders samples by VM name, for deterministic iteration in
// logs and tests.
func SortSamples(samples []Sample) {
	sort.Slice(samples, func(i, j int) bool { return samples[i].VM < samples[j].VM })
}
