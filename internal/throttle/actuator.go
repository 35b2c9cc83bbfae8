package throttle

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"syscall"
)

// FuncActuator adapts pause/resume callbacks into an Actuator; the
// simulator's containers are driven through this.
type FuncActuator struct {
	// PauseFn and ResumeFn receive the batch application IDs. Nil
	// functions are no-ops.
	PauseFn  func(ids []string) error
	ResumeFn func(ids []string) error
}

var _ Actuator = FuncActuator{}

// Pause invokes PauseFn.
func (f FuncActuator) Pause(ids []string) error {
	if f.PauseFn == nil {
		return nil
	}
	return f.PauseFn(ids)
}

// Resume invokes ResumeFn.
func (f FuncActuator) Resume(ids []string) error {
	if f.ResumeFn == nil {
		return nil
	}
	return f.ResumeFn(ids)
}

// RecordingActuator records every actuation, for tests and event logs.
// It also implements GradedActuator so graded-policy controllers can be
// tested against it. It is safe for concurrent use.
type RecordingActuator struct {
	mu     sync.Mutex
	events []ActuationEvent
	paused map[string]bool
	levels map[string]float64
	// FailPause, FailResume and FailSetLevel inject errors for failure
	// testing.
	FailPause    error
	FailResume   error
	FailSetLevel error
}

// ActuationEvent is one recorded pause, resume or quota change.
type ActuationEvent struct {
	Action Action
	IDs    []string
	// Level is the quota fraction of an ActionLimit event.
	Level float64
}

var _ GradedActuator = (*RecordingActuator)(nil)

// NewRecordingActuator returns an empty recorder.
//
//lint:stayaway-ignore deadcode its caller is the bench harness, a separate module that ./... does not load
func NewRecordingActuator() *RecordingActuator {
	return &RecordingActuator{paused: make(map[string]bool), levels: make(map[string]float64)}
}

// Pause records a pause.
func (r *RecordingActuator) Pause(ids []string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.FailPause != nil {
		return r.FailPause
	}
	r.events = append(r.events, ActuationEvent{Action: ActionPause, IDs: append([]string(nil), ids...)})
	for _, id := range ids {
		r.paused[id] = true
	}
	return nil
}

// Resume records a resume.
func (r *RecordingActuator) Resume(ids []string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.FailResume != nil {
		return r.FailResume
	}
	r.events = append(r.events, ActuationEvent{Action: ActionResume, IDs: append([]string(nil), ids...)})
	for _, id := range ids {
		delete(r.paused, id)
	}
	return nil
}

// SetLevel records a quota change.
func (r *RecordingActuator) SetLevel(ids []string, level float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.FailSetLevel != nil {
		return r.FailSetLevel
	}
	r.events = append(r.events, ActuationEvent{Action: ActionLimit, IDs: append([]string(nil), ids...), Level: level})
	for _, id := range ids {
		if level >= 1 {
			delete(r.levels, id)
		} else {
			r.levels[id] = level
		}
	}
	return nil
}

// Level returns the recorded quota for an ID (1 when unlimited).
func (r *RecordingActuator) Level(id string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if l, ok := r.levels[id]; ok {
		return l
	}
	return 1
}

// Events returns a copy of all recorded actuations.
func (r *RecordingActuator) Events() []ActuationEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ActuationEvent, len(r.events))
	copy(out, r.events)
	return out
}

// Paused returns the currently paused IDs, sorted.
func (r *RecordingActuator) Paused() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.paused))
	for id := range r.paused {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ProcessActuator throttles real operating-system processes with
// SIGSTOP/SIGCONT — the exact mechanism of the paper's prototype ("To
// throttle the execution of the batch application, Stay-Away sends a
// SIGSTOP signal to pause the batch application and SIGCONT to resume its
// execution"). IDs must be decimal PIDs.
type ProcessActuator struct {
	// Kill is the signal-sending function; overridable for tests. Nil uses
	// syscall.Kill.
	Kill func(pid int, sig syscall.Signal) error
}

var _ Actuator = (*ProcessActuator)(nil)

// Pause sends SIGSTOP to every PID.
func (p *ProcessActuator) Pause(ids []string) error {
	return p.signalAll(ids, syscall.SIGSTOP)
}

// Resume sends SIGCONT to every PID.
func (p *ProcessActuator) Resume(ids []string) error {
	return p.signalAll(ids, syscall.SIGCONT)
}

func (p *ProcessActuator) signalAll(ids []string, sig syscall.Signal) error {
	kill := p.Kill
	if kill == nil {
		kill = syscall.Kill
	}
	var firstErr error
	for _, id := range ids {
		pid, err := parsePID(id)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if err := kill(pid, sig); err != nil && !errors.Is(err, syscall.ESRCH) && firstErr == nil {
			// ESRCH (process already gone) is vacuous success: there is
			// nothing left to pause or resume, and treating it as an error
			// would wedge the controller in the throttled state.
			firstErr = fmt.Errorf("throttle: signal %v to pid %d: %w", sig, pid, err)
		}
	}
	return firstErr
}

func parsePID(id string) (int, error) {
	if id == "" {
		return 0, fmt.Errorf("throttle: empty PID")
	}
	pid := 0
	for _, r := range id {
		if r < '0' || r > '9' {
			return 0, fmt.Errorf("throttle: invalid PID %q", id)
		}
		pid = pid*10 + int(r-'0')
		if pid > 1<<22 {
			return 0, fmt.Errorf("throttle: PID %q out of range", id)
		}
	}
	if pid <= 0 {
		return 0, fmt.Errorf("throttle: invalid PID %q", id)
	}
	return pid, nil
}
