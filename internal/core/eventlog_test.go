package core

import (
	"testing"

	"repro/internal/throttle"
)

func TestEventLogUnboundedWhenNegative(t *testing.T) {
	log := newEventLog(-1)
	for i := 0; i < 10000; i++ {
		log.append(Event{Period: i})
	}
	if got := log.len(); got != 10000 {
		t.Fatalf("len = %d, want everything retained", got)
	}
	evs, next := log.since(9998)
	if len(evs) != 2 || evs[0].Period != 9998 || next != 10000 {
		t.Fatalf("since(9998) = %d events, next %d", len(evs), next)
	}
}

func TestEventLogRingEviction(t *testing.T) {
	log := newEventLog(4)
	for i := 0; i < 10; i++ {
		log.append(Event{Period: i})
	}
	all := log.all()
	if len(all) != 4 {
		t.Fatalf("len = %d, want window of 4", len(all))
	}
	if all[0].Period != 6 || all[3].Period != 9 {
		t.Fatalf("window = periods %d..%d, want 6..9", all[0].Period, all[3].Period)
	}

	// Several wraps, every head position: after each append the ring must
	// read exactly like a slice that keeps its last max elements, from any
	// cursor — and must not have grown past its window.
	for _, max := range []int{1, 2, 5, 8} {
		log := newEventLog(max)
		var model []Event
		for i := 0; i < 5*max+3; i++ {
			log.append(Event{Period: i})
			if model = append(model, Event{Period: i}); len(model) > max {
				model = model[1:]
			}
			if got := log.all(); !sameEvents(got, model) || log.len() != len(model) || cap(log.buf) > 2*max {
				t.Fatalf("max %d after %d appends: all() = %v (len %d, cap %d), want %v", max, i+1, periodsOf(got), log.len(), cap(log.buf), periodsOf(model))
			}
			for seq := uint64(0); seq <= uint64(i)+2; seq++ {
				got, next := log.since(seq)
				want := model
				if first := uint64(model[0].Period); seq > first {
					want = model[min(int(seq-first), len(model)):]
				}
				if !sameEvents(got, want) || next != uint64(i)+1 {
					t.Fatalf("max %d after %d appends: since(%d) = %v next %d, want %v next %d",
						max, i+1, seq, periodsOf(got), next, periodsOf(want), i+1)
				}
			}
		}
	}
}

func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Period != b[i].Period {
			return false
		}
	}
	return true
}

func periodsOf(evs []Event) []int {
	out := make([]int, len(evs))
	for i, ev := range evs {
		out[i] = ev.Period
	}
	return out
}

func TestEventLogSinceDrain(t *testing.T) {
	log := newEventLog(4)
	var seq uint64
	for i := 0; i < 3; i++ {
		log.append(Event{Period: i})
	}
	// First drain sees everything so far.
	evs, seq := log.since(seq)
	if len(evs) != 3 || seq != 3 {
		t.Fatalf("drain 1: %d events, next %d", len(evs), seq)
	}
	// Nothing new: empty drain, cursor unchanged.
	evs, seq = log.since(seq)
	if len(evs) != 0 || seq != 3 {
		t.Fatalf("drain 2: %d events, next %d", len(evs), seq)
	}
	// Two more events arrive.
	log.append(Event{Period: 3})
	log.append(Event{Period: 4})
	evs, seq = log.since(seq)
	if len(evs) != 2 || evs[0].Period != 3 || seq != 5 {
		t.Fatalf("drain 3: %d events, next %d", len(evs), seq)
	}
	// A slow reader whose cursor fell off the window is clamped to the
	// oldest retained event instead of erroring.
	for i := 5; i < 12; i++ {
		log.append(Event{Period: i})
	}
	evs, seq = log.since(5)
	if len(evs) != 4 || evs[0].Period != 8 || seq != 12 {
		t.Fatalf("clamped drain: %d events starting %d, next %d", len(evs), evs[0].Period, seq)
	}
	// A reader that keeps up across many wraps of the ring — draining in
	// bursts of one to three, so its cursor meets every head position —
	// sees every event exactly once, in order.
	want := 12
	for i := 12; i < 60; {
		for burst := i%3 + 1; burst > 0; burst-- {
			log.append(Event{Period: i})
			i++
		}
		evs, seq = log.since(seq)
		for _, ev := range evs {
			if ev.Period != want {
				t.Fatalf("drain across wraps: got period %d, want %d", ev.Period, want)
			}
			want++
		}
		if int(seq) != i || want != i {
			t.Fatalf("drain across wraps: cursor %d, drained through %d, appended %d", seq, want, i)
		}
	}
}

func TestRuntimeEventWindowBoundsGrowth(t *testing.T) {
	env := &fakeEnv{script: []envStep{{sensitiveCPU: 100, sensRunning: true}}}
	cfg := baseConfig()
	cfg.EventWindow = 8
	r, _ := newTestRuntime(t, cfg, env)
	for i := 0; i < 100; i++ {
		if _, err := r.Period(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(r.Events()); got != 8 {
		t.Fatalf("retained %d events, want window of 8", got)
	}
	evs, next := r.EventsSince(0)
	if len(evs) != 8 || evs[0].Period != 92 || next != 100 {
		t.Fatalf("EventsSince(0): %d events from %d, next %d", len(evs), evs[0].Period, next)
	}
	rep := r.Report()
	if rep.Periods != 100 {
		t.Fatalf("report periods = %d despite eviction", rep.Periods)
	}
}

func TestConfigRejectsDuplicateBatchIDs(t *testing.T) {
	env := &fakeEnv{}
	act := throttle.NewRecordingActuator()
	cfg := baseConfig()
	cfg.BatchIDs = []string{"b1", "b2", "b1"}
	if _, err := New(cfg, env, act); err == nil {
		t.Fatal("duplicate BatchIDs should be rejected")
	}
}
