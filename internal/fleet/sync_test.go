package fleet

import (
	"context"
	"net/http"
	"testing"
	"time"

	"repro/internal/statespace"
)

// Syncers sharing one client keep independent state: one lane's outage
// marks only that lane degraded, and its recovery heals it.
func TestSyncersShareClientAndDegradeIndependently(t *testing.T) {
	ts, _ := newTestServer(t)
	gate := &gatedTransport{inner: http.DefaultTransport}
	c, err := NewClient(ClientConfig{
		BaseURL:   ts.URL,
		Transport: gate,
		Retry: RetryConfig{
			Attempts: 2,
			Sleep:    func(context.Context, time.Duration) error { return nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	vlc, kv := NewSyncer(c, "host-a", "vlc"), NewSyncer(c, "host-a", "kv")
	if err := vlc.PushTemplate(testTemplate("vlc")); err != nil {
		t.Fatal(err)
	}
	if err := kv.PushTemplate(testTemplate("kv")); err != nil {
		t.Fatal(err)
	}
	if vlc.Stats().Err != nil || kv.Stats().Err != nil {
		t.Fatal("a lane is degraded after healthy pushes")
	}

	gate.setDown(true)
	if err := kv.PushTemplate(testTemplate("kv")); err == nil {
		t.Fatal("push during outage must error")
	}
	if vlc.Stats().Err != nil || kv.Stats().Err == nil {
		t.Fatalf("degraded: vlc %v, kv %v; want only kv", vlc.Stats().Err, kv.Stats().Err)
	}

	gate.setDown(false)
	if err := kv.PushTemplate(testTemplate("kv")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Stats().Err; err != nil {
		t.Fatalf("kv still degraded after recovery: %v", err)
	}
}

// Bootstrap sets both revisions, so the stream never re-delivers what the
// pull carried; a cold fleet sets neither.
func TestSyncerBootstrapSetsBothRevisions(t *testing.T) {
	ts, reg := newTestServer(t)
	s := NewSyncer(newTestClient(t, ts.URL), "host-a", "vlc")
	if tpl, rev, err := s.Bootstrap(context.Background()); tpl != nil || rev != 0 || err != nil {
		t.Fatalf("cold bootstrap = %v, %d, %v; want nothing", tpl, rev, err)
	}
	if st := s.Stats(); st.Revision != 0 || st.Applied != 0 || st.Pushes != 0 {
		t.Fatalf("stats after a cold bootstrap = %+v", st)
	}
	for i := 0; i < 2; i++ {
		if _, err := reg.Put("host-b", testTemplate("vlc")); err != nil {
			t.Fatal(err)
		}
	}
	if _, rev, err := s.Bootstrap(context.Background()); rev != 2 || err != nil {
		t.Fatalf("bootstrap = revision %d, %v; want 2", rev, err)
	}
	if st := s.Stats(); st.Revision != 2 || st.Applied != 2 {
		t.Fatalf("revisions after bootstrap = synced %d, applied %d; want 2, 2", st.Revision, st.Applied)
	}
	if s.stash(delta(1, 2, false, 1)); s.Stats().Stale != 1 {
		t.Error("the bootstrapped revision was not stale to the stream")
	}
}

// delta builds a streamed or polled delta whose patch has n states.
func delta(from, to int, full bool, n int) *statespace.TemplateDelta {
	patch := &statespace.Template{}
	for i := 0; i < n; i++ {
		patch.States = append(patch.States, statespace.TemplateState{Vector: []float64{float64(to), float64(i)}})
	}
	return &statespace.TemplateDelta{FromRevision: from, ToRevision: to, Full: full, Patch: patch}
}

// The coalescing rules for streamed deltas and poll results, fed directly
// with no stream behind them.
func TestSyncerCoalescing(t *testing.T) {
	type span struct {
		from, to int
		full     bool
		states   int
	}
	spanOf := func(d *statespace.TemplateDelta) *span {
		if d == nil {
			return nil
		}
		return &span{d.FromRevision, d.ToRevision, d.Full, len(d.Patch.States)}
	}
	for _, tc := range []struct {
		name    string
		applied int
		pending *statespace.TemplateDelta
		// Exactly one input: a streamed delta, or a poll result (polled;
		// a nil poll is a failed or empty one).
		streamed *statespace.TemplateDelta
		polled   bool
		poll     *statespace.TemplateDelta
		// wantGap is stash reporting a gap: the caller must poll.
		wantGap     bool
		wantPending *span
		wantStale   int
	}{
		{name: "stale delta is counted, not stashed", applied: 5,
			streamed: delta(3, 5, false, 1), wantStale: 1},
		{name: "stale delta leaves pending alone", applied: 5, pending: delta(5, 6, false, 1),
			streamed: delta(4, 5, false, 1), wantPending: &span{5, 6, false, 1}, wantStale: 1},
		{name: "first incremental delta that is gapped asks for a poll", applied: 2,
			streamed: delta(3, 4, false, 1), wantGap: true},
		{name: "first contiguous delta is stashed", applied: 2,
			streamed: delta(2, 3, false, 1), wantPending: &span{2, 3, false, 1}},
		{name: "first full delta is stashed across a gap", applied: 2,
			streamed: delta(0, 7, true, 3), wantPending: &span{0, 7, true, 3}},
		{name: "full delta replaces the pending one", applied: 2, pending: delta(2, 3, false, 1),
			streamed: delta(0, 5, true, 4), wantPending: &span{0, 5, true, 4}},
		{name: "contiguous chain is concatenated", applied: 2, pending: delta(2, 3, false, 1),
			streamed: delta(3, 4, false, 2), wantPending: &span{2, 4, false, 3}},
		{name: "delta from at or below applied supersedes pending", applied: 2, pending: delta(2, 3, false, 1),
			streamed: delta(1, 4, false, 2), wantPending: &span{1, 4, false, 2}},
		{name: "gap after pending asks for a poll and keeps pending", applied: 2, pending: delta(2, 3, false, 1),
			streamed: delta(5, 6, false, 1), wantGap: true, wantPending: &span{2, 3, false, 1}},
		{name: "poll result replaces the pending delta", applied: 2, pending: delta(2, 3, false, 1),
			polled: true, poll: delta(2, 6, false, 3), wantPending: &span{2, 6, false, 3}},
		{name: "poll at the cursor is ignored", applied: 6,
			polled: true, poll: delta(2, 6, false, 3)},
		{name: "poll below the cursor keeps pending", applied: 6, pending: delta(6, 7, false, 1),
			polled: true, poll: delta(2, 5, false, 3), wantPending: &span{6, 7, false, 1}},
		{name: "failed poll keeps pending", applied: 2, pending: delta(2, 3, false, 1),
			polled: true, wantPending: &span{2, 3, false, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSyncer(nil, "host-a", "vlc")
			s.MarkApplied(tc.applied)
			s.pending = tc.pending
			before := spanOf(tc.pending)
			if tc.polled {
				s.stashPoll(tc.poll)
				if st := s.Stats(); st.Polls != 1 {
					t.Errorf("polls = %d, want 1", st.Polls)
				}
			} else if gap := !s.stash(tc.streamed); gap != tc.wantGap {
				t.Errorf("gap = %v, want %v", gap, tc.wantGap)
			}
			got := spanOf(s.TakeUpdate())
			if (got == nil) != (tc.wantPending == nil) || got != nil && *got != *tc.wantPending {
				t.Errorf("pending = %+v, want %+v", got, tc.wantPending)
			}
			if st := s.Stats(); st.Stale != tc.wantStale {
				t.Errorf("stale = %d, want %d", st.Stale, tc.wantStale)
			}
			// Concatenation copies: the delta that was pending is unchanged.
			if before != nil && *spanOf(tc.pending) != *before {
				t.Errorf("the old pending delta was mutated to %+v", spanOf(tc.pending))
			}
		})
	}
}
