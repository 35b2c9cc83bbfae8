package fleet

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/statespace"
	"repro/internal/stream"
)

// Sync timings.
const (
	// opTimeout bounds each push, heartbeat and fallback delta poll, all
	// retries included.
	opTimeout = 30 * time.Second
	// reconnectMin and reconnectMax bound the exponential backoff between
	// stream connection attempts; each delay is spread uniformly within
	// ±jitterFrac of itself so a registry restart does not get the whole
	// fleet back in lockstep.
	reconnectMin = time.Second
	reconnectMax = 30 * time.Second
	jitterFrac   = 0.2
	// streamWatchdog kills a stream connection that has gone this long
	// without any event or heartbeat; the syncer then polls and reconnects.
	streamWatchdog = 60 * time.Second
)

// Syncer is one application lane's link to the fleet registry: it pulls
// the consensus map before the lane's first period (Bootstrap), pushes the
// lane's learned map and heartbeats (PushTemplate, Heartbeat), and, while
// Follow runs, keeps the lane's view of the consensus map fresh from the
// registry's push stream, falling back to delta polls whenever the stream
// is down or skips revisions.
//
// Neither half ever reaches into the control loop. A failed operation
// marks the syncer degraded (SyncStats.Err) and the host keeps protecting
// from its local map until the next success. Streamed deltas are coalesced
// into one pending update the host takes at a period boundary
// (TakeUpdate), so a live map is never touched mid-period.
type Syncer struct {
	client    *Client
	host, app string
	// Logf, when non-nil, receives one line per stream disconnect.
	Logf func(format string, args ...any)

	// backoffMin and backoffMax are reconnectMin and reconnectMax; tests
	// shorten them.
	backoffMin, backoffMax time.Duration

	mu      sync.Mutex
	stats   SyncStats
	lastID  string // SSE resume token
	pending *statespace.TemplateDelta
}

// SyncStats is a snapshot of one Syncer.
type SyncStats struct {
	// Revision is the registry revision last synced, by Bootstrap or a
	// push: what heartbeats and metrics report. Applied is the revision
	// the lane's map reflects, the stream cursor. Bootstrap sets both; a
	// push advances only Revision, because its reply revision includes
	// other hosts' states the lane has not seen.
	Revision, Applied int
	// Pushes counts successful bootstraps and pushes, Failures every
	// failed operation. Err is the last failure, cleared by the next
	// success: while it is set the lane protects from a stale local map.
	Pushes, Failures int
	Err              error
	// Streaming is true while the push stream is connected.
	Streaming bool
	// Events counts streamed deltas accepted and Stale those the lane had
	// already passed; Reconnects and Resets count stream churn, Polls the
	// fallback delta polls.
	Events, Stale, Reconnects, Resets, Polls int
}

// NewSyncer binds a client to one host's identity and one application.
func NewSyncer(client *Client, host, app string) *Syncer {
	return &Syncer{client: client, host: host, app: app, backoffMin: reconnectMin, backoffMax: reconnectMax}
}

// Bootstrap pulls the consensus template for the app, to seed the lane
// before its first period. A registry with no template yet — a cold fleet
// — returns (nil, 0, nil); an unreachable registry returns the error so
// the caller can decide to start cold (and says so in its logs).
func (s *Syncer) Bootstrap(ctx context.Context) (*statespace.Template, int, error) {
	tpl, rev, err := s.client.PullTemplate(ctx, s.app, "", 0)
	if errors.Is(err, ErrNotFound) {
		return nil, 0, nil
	}
	s.record(rev, err)
	if err != nil {
		return nil, 0, err
	}
	// The stream must not re-deliver what the pull already carried.
	s.MarkApplied(rev)
	return tpl, rev, nil
}

// PushTemplate uploads the lane's learned map, bounded by the sync
// timeout. It returns the sync error for observability; the daemon's
// control loop logs it as a degraded-mode signal, never a failure.
func (s *Syncer) PushTemplate(t *statespace.Template) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	resp, err := s.client.PushTemplate(ctx, s.host, s.app, t)
	if err != nil {
		s.record(0, err)
		return err
	}
	s.record(resp.Revision, nil)
	return nil
}

// Heartbeat reports liveness; like PushTemplate, failures only mark the
// syncer degraded.
func (s *Syncer) Heartbeat(hb Heartbeat) error {
	if hb.Host == "" {
		hb.Host = s.host
	}
	if hb.App == "" {
		hb.App = s.app
	}
	if hb.TemplateRevision == 0 {
		hb.TemplateRevision = s.Stats().Revision
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	err := s.client.SendHeartbeat(ctx, hb)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.stats.Err = err
		s.stats.Failures++
		return err
	}
	s.stats.Err = nil
	return nil
}

// record counts one bootstrap or push outcome.
func (s *Syncer) record(rev int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Err = err
	if err != nil {
		s.stats.Failures++
		return
	}
	s.stats.Pushes++
	if rev > 0 {
		s.stats.Revision = rev
	}
}

// Stats snapshots the syncer.
func (s *Syncer) Stats() SyncStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// MarkApplied records that the lane's map now reflects revision rev,
// after applying a taken update. Later stream deltas at or below rev are
// ignored as stale.
func (s *Syncer) MarkApplied(rev int) {
	s.mu.Lock()
	if rev > s.stats.Applied {
		s.stats.Applied = rev
	}
	s.mu.Unlock()
}

// TakeUpdate removes and returns the coalesced pending delta, or nil when
// the lane is current. Callers apply it to their lane (at a period
// boundary) and then MarkApplied(delta.ToRevision).
func (s *Syncer) TakeUpdate() *statespace.TemplateDelta {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.pending
	s.pending = nil
	return d
}

// Follow drives the subscribe → consume → fall back → reconnect loop until
// ctx is cancelled; it always returns ctx's error. Each disconnect
// triggers one fallback delta poll (so updates keep flowing at reconnect
// cadence even when the stream endpoint is down for good) and a jittered,
// exponentially backed-off reconnect.
func (s *Syncer) Follow(ctx context.Context) error {
	backoff := s.backoffMin
	for {
		connected, err := s.streamOnce(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		s.mu.Lock()
		s.stats.Streaming = false
		s.stats.Reconnects++
		s.mu.Unlock()
		if connected {
			backoff = s.backoffMin
		}
		if s.Logf != nil {
			s.Logf("fleet: %s: stream down (%v), polling until reconnect", s.app, err)
		}
		s.pollOnce(ctx)
		delay := time.NewTimer(time.Duration(float64(backoff) * (1 + jitterFrac*(2*rand.Float64()-1))))
		select {
		case <-ctx.Done():
			delay.Stop()
			return ctx.Err()
		case <-delay.C:
		}
		backoff = min(2*backoff, s.backoffMax)
	}
}

// streamOnce holds one stream subscription until it breaks, reporting
// whether the connection ever became live (used to reset backoff).
func (s *Syncer) streamOnce(ctx context.Context) (connected bool, err error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	watchdog := time.AfterFunc(streamWatchdog, cancel)
	defer watchdog.Stop()

	s.mu.Lock()
	lastID := s.lastID
	s.mu.Unlock()
	id, err := s.client.StreamEvents(cctx, s.app, lastID,
		func(ev stream.Event, up *StreamUpdate) error {
			watchdog.Reset(streamWatchdog)
			connected = true
			s.onEvent(ctx, ev, up)
			return nil
		})
	s.mu.Lock()
	s.lastID = id
	s.mu.Unlock()
	return connected, err
}

// onEvent folds one stream event into the syncer's state.
func (s *Syncer) onEvent(ctx context.Context, ev stream.Event, up *StreamUpdate) {
	switch ev.Type {
	case stream.TypeHeartbeat:
		s.mu.Lock()
		s.stats.Streaming = true
		s.mu.Unlock()
	case stream.TypeReset:
		// Our resume position is gone; anything we missed must come from
		// the delta endpoint before later stream deltas can be trusted.
		s.mu.Lock()
		s.stats.Streaming = true
		s.stats.Resets++
		s.mu.Unlock()
		s.pollOnce(ctx)
	case stream.TypeDelta:
		if up == nil || up.Delta == nil || up.App != s.app {
			return
		}
		if !s.stash(up.Delta) {
			// The stream skipped revisions we never saw (queue overflow on
			// a previous incarnation, say): fetch the authoritative gap
			// instead of merging out of order.
			s.pollOnce(ctx)
		}
	}
}

// stash coalesces a streamed delta into pending, reporting false when the
// delta does not connect to what the lane has (a gap the caller must fill
// by polling).
//
// Chained incremental patches may both carry a state whose label was
// upgraded twice; applying the concatenation folds the duplicates and
// double-counts that state's weight. Weights are advisory (they bias
// nothing but merge bookkeeping), so this is accepted in exchange for
// never blocking the stream on a network round-trip.
func (s *Syncer) stash(d *statespace.TemplateDelta) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Streaming = true
	if d.ToRevision <= s.stats.Applied {
		s.stats.Stale++
		return true
	}
	s.stats.Events++
	switch {
	case s.pending == nil:
		if !d.Full && d.FromRevision > s.stats.Applied {
			return false
		}
		s.pending = d
	case d.Full:
		s.pending = d
	case d.FromRevision == s.pending.ToRevision:
		merged := *s.pending
		merged.Patch = statespace.CloneTemplate(s.pending.Patch)
		merged.Patch.States = append(merged.Patch.States, d.Patch.States...)
		merged.ToRevision = d.ToRevision
		s.pending = &merged
	case d.FromRevision <= s.stats.Applied:
		// The new delta alone spans everything pending covered.
		s.pending = d
	default:
		return false
	}
	return true
}

// pollOnce performs one conditional delta poll from the applied revision
// — the fallback path while the stream is down, and the gap-filler after
// a reset. A failed poll is only counted: the lane keeps protecting from
// its local map.
func (s *Syncer) pollOnce(ctx context.Context) {
	pctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	d, _, err := s.client.PullDelta(pctx, s.app, "", s.Stats().Applied)
	if err != nil {
		d = nil
	}
	s.stashPoll(d)
}

// stashPoll folds one poll result (nil: failed, or nothing new) into
// pending. The poll is authoritative from the applied revision, so it
// supersedes whatever was pending, which covered at most the same span.
func (s *Syncer) stashPoll(d *statespace.TemplateDelta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Polls++
	if d != nil && d.ToRevision > s.stats.Applied {
		s.pending = d
	}
}
