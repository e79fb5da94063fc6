package obs

import "sync"

// Recorder is a fixed-capacity ring-buffer Probe: once full, each new
// event overwrites the oldest, so tracing an arbitrarily long run keeps
// the most recent window. The buffer is allocated up front and Emit
// never allocates.
//
// Recorder is safe for concurrent use: a plain mutex keeps every
// accessor coherent, so a driver may read Len, Total or Events from
// another goroutine while the simulation emits. Nothing in the
// repository does so on a hot path — a served run's HTTP handlers read
// frozen States (internal/obs/live), never this ring, and a run that is
// not traced builds no Recorder at all — so the lock is uncontended
// (the simulation is the only writer) and is paid only under -trace.
type Recorder struct {
	mu          sync.Mutex
	buf         []Event // guarded by mu
	start, n    int     // guarded by mu
	total       int64   // guarded by mu
	overwritten int64   // guarded by mu
}

// DefaultRecorderCapacity holds roughly the last million events — a few
// thousand request lifecycles on a mid-sized machine.
const DefaultRecorderCapacity = 1 << 20

// NewRecorder returns a recorder holding up to capacity events
// (capacity < 1 selects DefaultRecorderCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// at is the ring slot i places after the oldest event, 0 <= i <=
// len(buf): a compare, not a division by a run-time length, per event.
// Callers hold mu.
func (r *Recorder) at(i int) int {
	if i += r.start; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// Emit implements Probe.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if r.n < len(r.buf) {
		r.buf[r.at(r.n)] = ev
		r.n++
		return
	}
	r.buf[r.start] = ev
	r.start = r.at(1)
	r.overwritten++
}

// Len reports the number of events currently held.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Total reports the number of events ever emitted.
func (r *Recorder) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Overwritten reports how many events the ring has discarded; nonzero
// means Events covers only the tail of the run.
func (r *Recorder) Overwritten() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.overwritten
}

// Events returns a copy of the held events oldest-first: the ring is
// at most two runs of the buffer.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.n)
	k := copy(out, r.buf[r.start:])
	copy(out[k:], r.buf)
	return out
}

// Reset discards all held events (capacity is kept).
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.start, r.n = 0, 0
	r.total, r.overwritten = 0, 0
}
