package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// scriptStep is one scripted transport outcome: a network error or an HTTP
// response.
type scriptStep struct {
	status int
	body   string
	err    error
}

// scriptedTransport replays a script of outcomes, one per request; the last
// step repeats. It is the "flaky network" — no real sockets, no sleeps.
type scriptedTransport struct {
	mu    sync.Mutex
	steps []scriptStep
	calls int
}

func (s *scriptedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s.mu.Lock()
	i := s.calls
	if i >= len(s.steps) {
		i = len(s.steps) - 1
	}
	step := s.steps[i]
	s.calls++
	s.mu.Unlock()
	if step.err != nil {
		return nil, step.err
	}
	return &http.Response{
		StatusCode: step.status,
		Body:       io.NopCloser(strings.NewReader(step.body)),
		Header:     make(http.Header),
		Request:    req,
	}, nil
}

func (s *scriptedTransport) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// retryClient builds a client over a scripted transport with a recording,
// non-sleeping backoff clock and deterministic (centered) jitter.
func retryClient(t *testing.T, tr http.RoundTripper, attempts int, slept *[]time.Duration) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{
		BaseURL:   "http://registry.test",
		Transport: tr,
		Retry: RetryConfig{
			Attempts:  attempts,
			BaseDelay: 100 * time.Millisecond,
			MaxDelay:  time.Second,
			Sleep: func(_ context.Context, d time.Duration) error {
				*slept = append(*slept, d)
				return nil
			},
			Rand: func() float64 { return 0.5 }, // centered: jitter factor 1.0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClientRetriesTransientFailures(t *testing.T) {
	// 500, then a network error, then success: the client must push
	// through both transient failures with exponentially growing delays.
	tr := &scriptedTransport{steps: []scriptStep{
		{status: 500, body: `{"error":"boom"}`},
		{err: fmt.Errorf("connection refused")},
		{status: 200, body: `{"revision":3,"states":2,"violation_states":1,"hosts":2}`},
	}}
	var slept []time.Duration
	c := retryClient(t, tr, 4, &slept)

	resp, err := c.PushTemplate(context.Background(), "host-a", "vlc", testTemplate("vlc"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Revision != 3 || resp.Hosts != 2 {
		t.Errorf("response = %+v", resp)
	}
	if tr.callCount() != 3 {
		t.Errorf("calls = %d, want 3", tr.callCount())
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("backoff delays = %v, want %v", slept, want)
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	tr := &scriptedTransport{steps: []scriptStep{{status: 400, body: `{"error":"bad template"}`}}}
	var slept []time.Duration
	c := retryClient(t, tr, 4, &slept)

	_, err := c.PushTemplate(context.Background(), "host-a", "vlc", testTemplate("vlc"))
	if err == nil {
		t.Fatal("400 must fail")
	}
	if !strings.Contains(err.Error(), "bad template") {
		t.Errorf("error lost the server message: %v", err)
	}
	if tr.callCount() != 1 || len(slept) != 0 {
		t.Errorf("calls = %d slept = %v; 4xx must not retry", tr.callCount(), slept)
	}
}

func TestClientGivesUpAfterAttempts(t *testing.T) {
	tr := &scriptedTransport{steps: []scriptStep{{status: 503, body: `{"error":"overloaded"}`}}}
	var slept []time.Duration
	c := retryClient(t, tr, 3, &slept)

	err := c.SendHeartbeat(context.Background(), Heartbeat{Host: "h"})
	if err == nil {
		t.Fatal("exhausted retries must fail")
	}
	if !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Errorf("error = %v", err)
	}
	if tr.callCount() != 3 || len(slept) != 2 {
		t.Errorf("calls = %d slept = %d, want 3 calls, 2 sleeps", tr.callCount(), len(slept))
	}
}

func TestClientStopsWhenBackoffContextCancelled(t *testing.T) {
	tr := &scriptedTransport{steps: []scriptStep{{err: fmt.Errorf("down")}}}
	c, err := NewClient(ClientConfig{
		BaseURL:   "http://registry.test",
		Transport: tr,
		Retry: RetryConfig{
			Attempts: 10,
			Sleep:    func(ctx context.Context, _ time.Duration) error { return context.Canceled },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendHeartbeat(context.Background(), Heartbeat{Host: "h"}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if tr.callCount() != 1 {
		t.Errorf("calls = %d, want 1 (cancelled during first backoff)", tr.callCount())
	}
}

func TestClientPullNotFoundIsTerminal(t *testing.T) {
	tr := &scriptedTransport{steps: []scriptStep{{status: 404, body: `{"error":"no template"}`}}}
	var slept []time.Duration
	c := retryClient(t, tr, 4, &slept)

	_, _, err := c.PullTemplate(context.Background(), "vlc", "", 0)
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if tr.callCount() != 1 || len(slept) != 0 {
		t.Errorf("404 must not retry: calls = %d slept = %v", tr.callCount(), slept)
	}
}

func TestClientRejectsCorruptPulledTemplate(t *testing.T) {
	tr := &scriptedTransport{steps: []scriptStep{{status: 200, body: `{"version":99}`}}}
	var slept []time.Duration
	c := retryClient(t, tr, 2, &slept)
	if _, _, err := c.PullTemplate(context.Background(), "vlc", "", 0); err == nil {
		t.Error("corrupt pulled template must fail")
	}
}

func TestBackoffDelayShape(t *testing.T) {
	rc := RetryConfig{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, JitterFrac: 0.2}
	rc.applyDefaults()

	rc.Rand = func() float64 { return 0.5 }
	for n, want := range []time.Duration{100, 200, 400, 800, 1000, 1000} {
		if got := rc.delay(n); got != want*time.Millisecond {
			t.Errorf("delay(%d) = %v, want %v", n, got, want*time.Millisecond)
		}
	}
	// Jitter bounds: ±20% around the nominal delay.
	rc.Rand = func() float64 { return 0 }
	if got := rc.delay(0); got != 80*time.Millisecond {
		t.Errorf("low-jitter delay = %v, want 80ms", got)
	}
	rc.Rand = func() float64 { return 0.999999 }
	if got := rc.delay(0); got < 115*time.Millisecond || got > 120*time.Millisecond {
		t.Errorf("high-jitter delay = %v, want ≈120ms", got)
	}
}

// gatedTransport fails every request while down, and forwards to the real
// transport while up — a registry outage switch for degraded-mode tests.
type gatedTransport struct {
	mu    sync.Mutex
	down  bool
	inner http.RoundTripper
}

func (g *gatedTransport) setDown(down bool) {
	g.mu.Lock()
	g.down = down
	g.mu.Unlock()
}

func (g *gatedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	g.mu.Lock()
	down := g.down
	g.mu.Unlock()
	if down {
		return nil, fmt.Errorf("registry unreachable (simulated outage)")
	}
	return g.inner.RoundTrip(req)
}

func TestSyncerDegradesAndRecovers(t *testing.T) {
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
	s := NewSyncer(c, "host-a", "vlc")

	// Healthy push.
	if err := s.PushTemplate(testTemplate("vlc")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Err != nil || st.Revision != 1 {
		t.Errorf("after a healthy push: err %v, revision %d; want nil, 1", st.Err, st.Revision)
	}

	// Outage: pushes fail, syncer flips to degraded, nothing panics.
	gate.setDown(true)
	if err := s.PushTemplate(testTemplate("vlc")); err == nil {
		t.Fatal("push during outage must error")
	}
	if s.Stats().Err == nil {
		t.Error("outage did not mark syncer degraded")
	}
	if err := s.Heartbeat(Heartbeat{Periods: 10}); err == nil {
		t.Fatal("heartbeat during outage must error")
	}

	// Recovery: the next periodic push resyncs and heals degraded mode.
	gate.setDown(false)
	if err := s.PushTemplate(testTemplate("vlc")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Err != nil {
		t.Error("successful resync left syncer degraded")
	}
	if st.Revision != 2 {
		t.Errorf("revision after resync = %d, want 2", st.Revision)
	}
	if st.Pushes != 2 || st.Failures != 2 {
		t.Errorf("stats = %d pushes %d failures, want 2/2", st.Pushes, st.Failures)
	}
	// A push advances the synced revision, never the stream cursor: the
	// reply revision includes states the lane has not seen.
	if st.Applied != 0 {
		t.Errorf("applied revision after pushes = %d, want 0", st.Applied)
	}
	// Heartbeat carries the synced revision.
	if err := s.Heartbeat(Heartbeat{Periods: 20}); err != nil {
		t.Fatal(err)
	}
	status, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(status.Hosts) != 1 || status.Hosts[0].TemplateRevision != 2 {
		t.Errorf("status hosts = %+v", status.Hosts)
	}
}
