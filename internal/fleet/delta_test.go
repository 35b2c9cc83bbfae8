package fleet

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/registry"
	"repro/internal/statespace"
	"repro/internal/stream"
)

// newHubServer builds a fleet server with a live publish hub, so tests
// can exercise the delta endpoint and the SSE stream end to end.
func newHubServer(t *testing.T, epoch int64, key []byte) (*httptest.Server, *registry.Registry, *stream.Hub) {
	t.Helper()
	hub := stream.NewHub(stream.HubConfig{Epoch: epoch})
	t.Cleanup(hub.Close)
	reg, err := registry.Open(registry.Config{OnPut: PublishHook(hub)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Registry:        reg,
		Hub:             hub,
		Metrics:         stream.NewMetricSet(),
		Key:             key,
		StreamHeartbeat: 50 * time.Millisecond,
		Now:             func() time.Time { return time.Unix(1700000000, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, reg, hub
}

func TestPullDeltaLifecycle(t *testing.T) {
	ts, reg, _ := newHubServer(t, 1, nil)
	c := newTestClient(t, ts.URL)
	ctx := context.Background()

	// No entry yet.
	if _, _, err := c.PullDelta(ctx, "vlc", "", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cold delta err = %v, want ErrNotFound", err)
	}

	e, err := reg.Put("host-a", testTemplate("vlc"))
	if err != nil {
		t.Fatal(err)
	}

	// From nothing: a Full replacement.
	d, rev, err := c.PullDelta(ctx, "vlc", "", 0)
	if err != nil || d == nil || !d.Full {
		t.Fatalf("bootstrap delta = %+v, rev %d, err %v (want Full)", d, rev, err)
	}
	if rev != e.Revision || d.ToRevision != e.Revision || len(d.Patch.States) != 2 {
		t.Fatalf("bootstrap delta = %+v, rev %d", d, rev)
	}

	// Empty delta: the client is current, nothing crosses the wire.
	d, rev, err = c.PullDelta(ctx, "vlc", "", e.Revision)
	if err != nil || d != nil || rev != e.Revision {
		t.Fatalf("current delta = %+v, rev %d, err %v (want nil delta)", d, rev, err)
	}

	// Client ahead of the server (the registry lost history, say a wiped
	// data dir): served a Full replacement, never an error.
	d, _, err = c.PullDelta(ctx, "vlc", "", e.Revision+5)
	if err != nil || d == nil || !d.Full {
		t.Fatalf("ahead delta = %+v, err %v (want Full)", d, err)
	}

	// Incremental: a second host contributes one new violation; a client
	// at the old revision gets just the changed state.
	upd := testTemplate("vlc")
	upd.States = []statespace.TemplateState{{
		X: 5, Y: 5, Label: statespace.Violation.String(), Weight: 1,
		Vector: []float64{0.5, 0.4},
	}}
	e2, err := reg.Put("host-b", upd)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err = c.PullDelta(ctx, "vlc", "", e.Revision)
	if err != nil || d == nil || d.Full {
		t.Fatalf("incremental delta = %+v, err %v", d, err)
	}
	if d.FromRevision != e.Revision || d.ToRevision != e2.Revision || len(d.Patch.States) != 1 {
		t.Fatalf("incremental delta = %+v", d)
	}
	if d.Patch.States[0].Label != statespace.Violation.String() {
		t.Fatalf("patch state = %+v, want the new violation", d.Patch.States[0])
	}
}

func TestStreamDeliversPutWithinConnection(t *testing.T) {
	ts, reg, _ := newHubServer(t, 1, nil)
	c := newTestClient(t, ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var got *StreamUpdate
	done := make(chan struct{})
	go func() {
		// The first heartbeat confirms the subscription is live; only then
		// is the Put guaranteed to be published after our subscribe.
		heard := make(chan struct{})
		var once sync.Once
		go func() {
			<-heard
			if _, err := reg.Put("host-a", testTemplate("vlc")); err != nil {
				t.Error(err)
				cancel()
			}
		}()
		_, err := c.StreamEvents(ctx, "vlc", "", func(ev stream.Event, up *StreamUpdate) error {
			if ev.Type == stream.TypeHeartbeat {
				once.Do(func() { close(heard) })
			}
			if ev.Type == stream.TypeDelta && up != nil {
				got = up
				cancel()
			}
			return nil
		})
		if err != nil && ctx.Err() == nil {
			t.Error(err)
		}
		close(done)
	}()
	<-done
	if got == nil {
		t.Fatal("stream never delivered the put")
	}
	if got.App != "vlc" || got.Revision != 1 || got.Delta == nil || !got.Delta.Full {
		t.Fatalf("update = %+v", got)
	}
}

func TestStreamRestartResumesViaReset(t *testing.T) {
	// Session one: subscribe, receive one delta, remember its event ID.
	ts, reg, _ := newHubServer(t, 1, nil)
	c := newTestClient(t, ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	var lastID string
	heard := make(chan struct{})
	var once sync.Once
	go func() {
		<-heard // first heartbeat = subscription live; the put will stream
		if _, err := reg.Put("host-a", testTemplate("vlc")); err != nil {
			t.Error(err)
		}
	}()
	id, err := c.StreamEvents(ctx, "vlc", "", func(ev stream.Event, up *StreamUpdate) error {
		if ev.Type == stream.TypeHeartbeat {
			once.Do(func() { close(heard) })
		}
		if ev.Type == stream.TypeDelta {
			cancel()
		}
		return nil
	})
	if ctx.Err() == nil && err != nil {
		t.Fatal(err)
	}
	lastID = id
	if lastID == "" {
		t.Fatal("no event ID recorded before the restart")
	}

	// The registry restarts: a fresh hub with a different epoch. Resuming
	// with the stale ID must yield a reset, telling the client its resume
	// position is gone and it must delta-poll the gap.
	ts2, _, _ := newHubServer(t, 2, nil)
	c2 := newTestClient(t, ts2.URL)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	sawReset := false
	finalID, err := c2.StreamEvents(ctx2, "vlc", lastID, func(ev stream.Event, up *StreamUpdate) error {
		if ev.Type == stream.TypeReset {
			sawReset = true
			cancel2()
		}
		return nil
	})
	if ctx2.Err() == nil && err != nil {
		t.Fatal(err)
	}
	if !sawReset {
		t.Fatal("restarted server never sent a reset for the stale Last-Event-ID")
	}
	if finalID != "" {
		t.Fatalf("lastID after reset = %q, want cleared", finalID)
	}
}

// TestMergeWhileStreaming races a pushing fleet against a streaming
// consumer applying deltas to its local template — run under -race this
// is the merge-while-streaming soak the streaming control plane must
// survive.
func TestMergeWhileStreaming(t *testing.T) {
	ts, reg, _ := newHubServer(t, 1, nil)
	c := newTestClient(t, ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ss := NewSyncer(c, "host-a", "vlc")
	ss.backoffMin, ss.backoffMax = 5*time.Millisecond, 20*time.Millisecond
	runDone := make(chan struct{})
	go func() {
		ss.Follow(ctx)
		close(runDone)
	}()

	// The pushing fleet: 20 uploads, every fifth carrying a brand-new
	// violation state (revision churn plus real patches).
	const puts = 20
	pushDone := make(chan error, 1)
	go func() {
		for i := 0; i < puts; i++ {
			tpl := testTemplate("vlc")
			if i%5 == 0 {
				tpl.States = append(tpl.States, statespace.TemplateState{
					X: float64(i), Y: float64(i), Label: statespace.Violation.String(),
					Weight: 1, Vector: []float64{0.3 + float64(i)/50, 0.2},
				})
			}
			if _, err := reg.Put("host-x", tpl); err != nil {
				pushDone <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
		pushDone <- nil
	}()

	// The consuming host: take pending updates at "period boundaries" and
	// apply them to its local template, as stayawayd does to its lane.
	var local *statespace.Template
	deadline := time.After(15 * time.Second)
	for {
		if d := ss.TakeUpdate(); d != nil {
			merged, err := statespace.ApplyDelta(local, d, 0.01)
			if err != nil {
				t.Fatalf("apply streamed delta: %v", err)
			}
			local = merged
			ss.MarkApplied(d.ToRevision)
		}
		if ss.Stats().Applied >= puts {
			break
		}
		select {
		case err := <-pushDone:
			if err != nil {
				t.Fatal(err)
			}
			pushDone = nil // keep looping until the stream catches up
		case <-deadline:
			t.Fatalf("stream never converged: at revision %d of %d (stats %+v)",
				ss.Stats().Applied, puts, ss.Stats())
		case <-time.After(2 * time.Millisecond):
		}
	}
	cancel()
	<-runDone

	if local == nil {
		t.Fatal("no template assembled from the stream")
	}
	viol := 0
	for _, st := range local.States {
		if st.Label == statespace.Violation.String() {
			viol++
		}
	}
	// The base template has one violation; the pushers added four distinct
	// new ones (i = 0, 5, 10, 15).
	if viol < 5 {
		t.Fatalf("local template has %d violation states, want >= 5 (states %d)", viol, len(local.States))
	}
	if got, want := ss.Stats().Applied, puts; got != want {
		t.Fatalf("final revision = %d, want %d", got, want)
	}
}
