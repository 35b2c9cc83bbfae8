package fleet

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/statespace"
)

// Syncer keeps one host's runtime and the fleet registry loosely coupled:
// pull-on-start bootstrap, periodic template pushes, heartbeats — and
// graceful degradation. A sync failure flips the syncer into degraded mode
// but never propagates into the control loop: the daemon keeps protecting
// from its local map, and the next periodic push resyncs automatically once
// the registry recovers.
type Syncer struct {
	client *Client
	host   string
	app    string
	// timeout bounds each whole sync operation (all retries included).
	timeout time.Duration

	mu       sync.Mutex
	degraded bool
	lastErr  error
	lastRev  int
	pushes   int
	failures int
}

// NewSyncer binds a client to one host's identity.
func NewSyncer(client *Client, host, app string) *Syncer {
	return &Syncer{client: client, host: host, app: app, timeout: 30 * time.Second}
}

// SetTimeout overrides the per-operation deadline (default 30s).
func (s *Syncer) SetTimeout(d time.Duration) {
	if d > 0 {
		s.timeout = d
	}
}

func (s *Syncer) opContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), s.timeout)
}

// Bootstrap pulls the consensus template for the host's app, to seed the
// runtime before its first period. A registry with no template yet — a
// cold fleet — returns (nil, 0, nil); an unreachable registry returns the
// error so the caller can decide to start cold (and says so in its logs).
func (s *Syncer) Bootstrap(ctx context.Context) (*statespace.Template, int, error) {
	tpl, rev, err := s.client.PullTemplate(ctx, s.app, "", 0)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return nil, 0, nil
		}
		s.record(0, err)
		return nil, 0, err
	}
	s.record(rev, nil)
	return tpl, rev, nil
}

// PushTemplate uploads the current learned map, bounded by the sync
// timeout. It returns the sync error for observability; the daemon's
// control loop logs it as a degraded-mode signal, never a failure.
func (s *Syncer) PushTemplate(t *statespace.Template) error {
	ctx, cancel := s.opContext()
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
		hb.TemplateRevision = s.LastRevision()
	}
	ctx, cancel := s.opContext()
	defer cancel()
	if err := s.client.SendHeartbeat(ctx, hb); err != nil {
		s.record(0, err)
		return err
	}
	s.recordSuccessOnly()
	return nil
}

func (s *Syncer) record(rev int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.degraded = true
		s.lastErr = err
		s.failures++
		return
	}
	s.degraded = false
	s.lastErr = nil
	s.pushes++
	if rev > 0 {
		s.lastRev = rev
	}
}

// recordSuccessOnly clears degraded state without counting a push.
func (s *Syncer) recordSuccessOnly() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.degraded = false
	s.lastErr = nil
}

// Degraded reports whether the last sync attempt failed, and with what.
func (s *Syncer) Degraded() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded, s.lastErr
}

// LastRevision returns the registry revision of the last successful sync
// (0 when the host has only its local map).
func (s *Syncer) LastRevision() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastRev
}

// Stats returns successful and failed sync-operation counts.
func (s *Syncer) Stats() (pushes, failures int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pushes, s.failures
}
