package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/throttle"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{200, 95},   // exactly ten beyond the 95th
		{40000, 95}, // never above the 95th, however many samples
		{128, 92},
		{100, 90},
		{15, 50}, // no percentile above the median has ten beyond it
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
}

func TestMinPerIndex(t *testing.T) {
	got := minPerIndex([][]float64{{3, 1, 5}, {2, 4, 5}, {9, 9, 0.5}})
	want := []float64{2, 1, 0.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("minPerIndex = %v, want %v", got, want)
		}
	}
	if minPerIndex(nil) != nil {
		t.Error("no repetitions must fold to nothing")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q2, q3 := quartiles(x)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(x); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSpeedAtWindow(t *testing.T) {
	ms := time.Millisecond
	at := func(d time.Duration, us float64) refSample { return refSample{at: d, us: us} }
	samples := []refSample{
		at(0, refNominalUS),        // 100 ms before the interval: outside the window
		at(60*ms, 2*refNominalUS),  // inside the window, slow
		at(99*ms, 3*refNominalUS),  // adjacent, before
		at(111*ms, 3*refNominalUS), // adjacent, after
		at(150*ms, 1.5*refNominalUS),
		at(400*ms, refNominalUS), // far after: outside
	}
	// Interval 100..110 ms, adjacent samples 2..3: the window reaches
	// samples 1 and 4, and the fastest of those (1.5×) sets the speed.
	if got := speedAt(samples, 2, 3, 100*ms, 110*ms); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("speed = %v, want 1.5", got)
	}
	// The adjacent samples count even when nothing else is in reach.
	far := []refSample{at(0, 2*refNominalUS), at(900*ms, 4*refNominalUS)}
	if got := speedAt(far, 0, 1, 300*ms, 600*ms); math.Abs(got-2) > 1e-9 {
		t.Errorf("speed from adjacent-only samples = %v, want 2", got)
	}
	if got := speedAt(nil, 0, 0, 0, ms); got != 1 {
		t.Errorf("speed without samples = %v, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "period", Start: 0, End: 100, Parent: -1},
		{Name: "collect", Start: 10, End: 30, Parent: 0},
		{Name: "actuate", Start: 20, End: 50, Parent: 0}, // overlaps collect: counted once
		{Name: "inner", Start: 12, End: 14, Parent: 1},
	}
	self := selfTimes(spans)
	if self[0] != 60 {
		t.Errorf("period self time = %d, want 60", self[0])
	}
	if self[1] != 18 {
		t.Errorf("collect self time = %d, want 18", self[1])
	}
	if !childrenFit(spans) {
		t.Error("children reported as not fitting")
	}
	spans[2].End = 120
	if childrenFit(spans) {
		t.Error("a child ending after its parent went unnoticed")
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer(newClock())
	tr.begin("period", 7)
	tr.leaf("collect", 7, 1, 2)
	tr.begin("probe", 7)
	tr.end()
	tr.end()
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Fatalf("unexpected span tree: %+v", tr.spans)
	}
	var none *tracer
	none.begin("x", 0) // a nil tracer records nothing and must not panic
	none.leaf("x", 0, 0, 0)
	none.end()
}

func TestEventHashDetectsMismatch(t *testing.T) {
	seq := []core.Event{
		{StateID: 3, NewState: true, Action: throttle.ActionPause},
		{StateID: 3, Violation: true},
		{StateID: 300, Action: throttle.ActionResume},
	}
	hash := func(evs []core.Event) uint64 {
		h := uint64(fnvOffset)
		for _, ev := range evs {
			h = fnv1a(h, ev)
		}
		return h
	}
	base := hash(seq)
	for name, mutate := range map[string]func(*core.Event){
		"StateID":   func(e *core.Event) { e.StateID++ },
		"NewState":  func(e *core.Event) { e.NewState = !e.NewState },
		"Action":    func(e *core.Event) { e.Action = throttle.ActionLimit },
		"Violation": func(e *core.Event) { e.Violation = !e.Violation },
	} {
		alt := append([]core.Event(nil), seq...)
		mutate(&alt[1])
		if hash(alt) == base {
			t.Errorf("changing %s left the hash unchanged", name)
		}
	}
	if hash(append([]core.Event(nil), seq...)) != base {
		t.Error("the same sequence hashed differently")
	}

	a := &repResult{hash: base, q: quality{violations: 4}}
	b := &repResult{hash: base, q: quality{violations: 4}}
	if msgs := sameBits([]*repResult{a, b}); len(msgs) != 0 {
		t.Errorf("identical repetitions flagged: %v", msgs)
	}
	b.hash++
	b.q.violations = 5
	if msgs := sameBits([]*repResult{a, b}); len(msgs) != 2 {
		t.Errorf("want a hash and a counter mismatch, got %v", msgs)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "period_ms_p50", better: "lower", bound: 0.10}
	higher := metricDef{name: "x", better: "higher", bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c * 0.995, c * 1.005} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c, c * 1.3, c * 0.8, c * 1.2} }
	for _, tc := range []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"within bound", lower, tight(1), tight(1.05), "same"},
		{"worse beyond bound", lower, tight(1), tight(1.2), "worse"},
		{"better beyond noise", lower, tight(1), tight(0.9), "better"},
		{"higher is better: a drop is worse", higher, tight(1), tight(0.8), "worse"},
		{"higher is better: a rise is better", higher, tight(1), tight(1.2), "better"},
		{"spread over the bound", lower, wide(1), wide(1.05), "unresolved"},
		{"spread over the bound, but every run better", lower, wide(1), tight(0.5), "better"},
		{"one side missing", lower, tight(1), nil, "missing"},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareSetsCountsWorse(t *testing.T) {
	mk := func(p50 float64) *resultSet {
		s := &resultSet{}
		for i := 0; i < 3; i++ {
			e := map[string]float64{}
			for _, m := range endToEnd {
				e[m.name] = 1
			}
			e["period_ms_p50"] = p50 * (1 + 0.001*float64(i))
			s.Runs = append(s.Runs, runRecord{Workload: "host-steady", EndToEnd: e})
		}
		return s
	}
	var out strings.Builder
	if worse := compareSets(&out, mk(1), mk(2)); worse != 1 {
		t.Errorf("worse = %d, want 1\n%s", worse, out.String())
	}
	if worse := compareSets(&out, mk(1), mk(1)); worse != 0 {
		t.Errorf("identical sets: worse = %d", worse)
	}
}

func TestLaneTrackScoresNextPeriod(t *testing.T) {
	var tr laneTrack
	for _, ev := range []core.Event{
		{Predicted: true},                  // verdict pending
		{Violation: true, Predicted: true}, // tp
		{Predicted: false},                 // fp
		{Violation: true},                  // fn
		{},                                 // tn
	} {
		tr.observe(ev)
	}
	if tr.tp != 1 || tr.fp != 1 || tr.fn != 1 || tr.tn != 1 || tr.violations != 2 {
		t.Errorf("tracker = %+v", tr)
	}
	tr.reset()
	if tr.periods != 0 || !tr.havePending {
		t.Errorf("reset must drop counts and keep the pending verdict: %+v", tr)
	}
}

func TestLineSink(t *testing.T) {
	s := newLineSink()
	s.Write([]byte("stayawayd: admin surface on http://127.0.0.1:1"))
	s.Write([]byte("234\npartial"))
	lines := s.snapshot()
	if len(lines) != 1 || lines[0] != "stayawayd: admin surface on http://127.0.0.1:1234" {
		t.Errorf("lines = %q", lines)
	}
}

// TestSchemaMatchesBenchmarkJSON keeps BENCHMARK.json and the code's
// metric lists in step.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", doc.RunSeconds, defaultSeconds)
	}
	// BENCHMARK.json gates the in-process workloads; daemon-cgroup is
	// measured by the harness but is not one of them (README.md).
	var names []string
	for _, spec := range inprocSpecs() {
		names = append(names, spec.name)
	}
	if len(doc.Workloads) != len(names) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(names))
	}
	for i, w := range doc.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, names[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || m.Bound != c.bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in code", i, m, c)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		c := perLayer[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in code", i, m, c)
		}
	}
}
