package stream

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Prometheus-style text metrics, stdlib only. The control plane exposes a
// handful of gauges and counters (template revisions, delta bytes served,
// active streams, merge conflicts); this renders them in the exposition
// text format so any standard scraper can read them, without pulling a
// client library into the module.

// MetricSet is an ordered collection of metrics rendered in registration
// order with deterministically sorted label sets. Safe for concurrent use.
type MetricSet struct {
	mu    sync.Mutex
	order []*metric
	byKey map[string]*metric
}

type metric struct {
	name, help, kind string // kind: "counter" | "gauge"
	values           map[string]*Value
}

// Value is one time series: a metric plus one concrete label set.
// Mutations are atomic with respect to rendering.
type Value struct {
	set    *MetricSet
	labels string // rendered {k="v",...} suffix, "" for no labels
	v      float64
}

// NewMetricSet creates an empty set.
func NewMetricSet() *MetricSet {
	return &MetricSet{byKey: make(map[string]*metric)}
}

// Counter registers (or returns the existing) counter name with the given
// labels as alternating key, value pairs. Counters only go up; use Add.
func (s *MetricSet) Counter(name, help string, labels ...string) *Value {
	return s.value(name, help, "counter", labels)
}

// Gauge registers (or returns the existing) gauge name with the given
// labels. Gauges move freely; use Set or Add.
func (s *MetricSet) Gauge(name, help string, labels ...string) *Value {
	return s.value(name, help, "gauge", labels)
}

func (s *MetricSet) value(name, help, kind string, labels []string) *Value {
	if len(labels)%2 != 0 {
		panic("stream: metric labels must be key, value pairs")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.byKey[name]
	if !ok {
		m = &metric{name: name, help: help, kind: kind, values: make(map[string]*Value)}
		// Metric names are a static registration set sized by call
		// sites in code, not by runtime input; the insert is a
		// first-use memoization of that fixed set.
		s.byKey[name] = m
		// Same static registration set as byKey: order only records
		// first-use of each code-declared metric name.
		s.order = append(s.order, m)
	}
	ls := renderLabels(labels)
	v, ok := m.values[ls]
	if !ok {
		v = &Value{set: s, labels: ls}
		m.values[ls] = v
	}
	return v
}

// Add increments the series by n.
func (v *Value) Add(n float64) {
	v.set.mu.Lock()
	v.v += n
	v.set.mu.Unlock()
}

// Set replaces the series value.
func (v *Value) Set(n float64) {
	v.set.mu.Lock()
	v.v = n
	v.set.mu.Unlock()
}

// Get reads the series value.
func (v *Value) Get() float64 {
	v.set.mu.Lock()
	defer v.set.mu.Unlock()
	return v.v
}

// WriteTo renders the set in the Prometheus text exposition format.
// Output is deterministic: metrics in registration order, series sorted
// by label string.
func (s *MetricSet) WriteTo(w io.Writer) (int64, error) {
	s.mu.Lock()
	var b strings.Builder
	for _, m := range s.order {
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		keys := make([]string, 0, len(m.values))
		for k := range m.values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s%s %g\n", m.name, k, m.values[k].v)
		}
	}
	s.mu.Unlock()
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// renderLabels builds the canonical {k="v",...} suffix with keys sorted
// and values escaped per the exposition format.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(p.v)
		fmt.Fprintf(&b, `%s="%s"`, p.k, esc)
	}
	b.WriteByte('}')
	return b.String()
}
