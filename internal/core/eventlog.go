package core

import "sync"

// eventLog retains per-period events in a bounded ring. Long daemon runs
// previously accumulated one Event per period forever; the ring bounds
// memory — and an append stays O(1) once it is full — while sequence
// numbers let report paths drain incrementally without missing
// (un-evicted) events.
//
// The log is internally locked: append only ever happens from the
// control-loop goroutine (Lane.Period), but several consumers — the
// daemon's report drain and the admin SSE publisher, each with its own
// cursor — may drain concurrently with the loop via EventsSince. The
// mutex covers exactly that read path; the Lane as a whole remains
// single-threaded.
type eventLog struct {
	mu sync.Mutex
	// buf grows by append up to max events and is a ring from then on:
	// the oldest retained event sits at head, the newest just before it.
	buf  []Event
	head int
	max  int
	// next is the sequence number the next appended event will get; the
	// oldest retained event has sequence next-len(buf).
	next uint64
}

// newEventLog returns a log retaining at most max events; max <= 0 keeps
// everything (the pre-ring behaviour, for short experiment runs that
// render figures from the full history).
func newEventLog(max int) *eventLog {
	return &eventLog{max: max}
}

// append records an event, overwriting the oldest when full.
func (l *eventLog) append(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	if l.max <= 0 || len(l.buf) < l.max {
		l.buf = append(l.buf, ev)
		return
	}
	l.buf[l.head] = ev
	l.head = (l.head + 1) % l.max
}

// newest returns a copy of the n most recent retained events, oldest
// first: the ring unwrapped. The caller holds mu and n <= len(buf).
func (l *eventLog) newest(n int) []Event {
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	// In age order the ring reads buf[head:] then buf[:head].
	if skip := len(l.buf) - n; skip < len(l.buf)-l.head {
		out = append(out, l.buf[l.head+skip:]...)
		out = append(out, l.buf[:l.head]...)
	} else {
		out = append(out, l.buf[l.head-n:l.head]...)
	}
	return out
}

// all returns a copy of every retained event.
func (l *eventLog) all() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.newest(len(l.buf))
}

// since returns a copy of all retained events with sequence >= seq, plus
// the sequence number to pass next time (one past the newest returned
// event). Evicted events are gone: asking for a sequence older than the
// retention window returns only what is still held.
func (l *eventLog) since(seq uint64) ([]Event, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	oldest := l.next - uint64(len(l.buf))
	if seq < oldest {
		seq = oldest
	}
	if seq >= l.next {
		return nil, l.next
	}
	return l.newest(int(l.next - seq)), l.next
}

// len reports how many events are retained.
func (l *eventLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}
