package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one period
// share its index; Parent is the index of the causing span in the
// tracer's slice, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Period int    `json:"period"`
}

// tracer keeps spans in memory; they are written once, when the
// benchmark ends. A nil tracer records nothing, so the untraced pass
// pays one nil check per boundary.
type tracer struct {
	clk   *clock
	spans []span
	stack []int
}

func newTracer(clk *clock) *tracer { return &tracer{clk: clk} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string, period int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(t.clk.now()), Parent: parent, Period: period})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil || len(t.stack) == 0 {
		return
	}
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = int64(t.clk.now())
}

// leaf records an already-measured child of the innermost open span.
func (t *tracer) leaf(name string, period int, start, end int64) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Period: period})
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (overlapping children are counted
// once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered, reach int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// childrenFit reports whether every span with a parent lies inside it.
func childrenFit(spans []span) bool {
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End || s.End < s.Start {
			return false
		}
	}
	return true
}

// writeSpans writes the span file atomically enough for a results file:
// temp name, then rename.
func writeSpans(path string, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
