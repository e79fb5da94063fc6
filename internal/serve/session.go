package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"ultracomputer/internal/engine"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/live"
)

// SessionState is a session's lifecycle state.
type SessionState string

const (
	// StateCreated: session exists, no config committed yet.
	StateCreated SessionState = "created"
	// StateReady: a running config is committed; the machine starts (or
	// restarts, after a commit/rollback/reset) from cycle 0 on the next
	// start or step.
	StateReady SessionState = "ready"
	// StateRunning: enqueued on the shared scheduler, advancing in
	// round-robin cycle slices.
	StateRunning SessionState = "running"
	// StatePaused: stopped by the client; resumable or steppable.
	StatePaused SessionState = "paused"
	// StateDone: every PE halted, or the cycle quota ran out.
	StateDone SessionState = "done"
	// StateFailed: the machine could not be built from the running
	// config (e.g. guest lint findings) or panicked mid-run; see
	// Info.Error.
	StateFailed SessionState = "failed"
	// StateDrained: shut down by service drain or deletion; terminal.
	StateDrained SessionState = "drained"
)

// ErrMachinePanic marks a step that ended in a panic inside the
// simulated machine (mapped to HTTP 500); the session is StateFailed.
var ErrMachinePanic = errors.New("serve: machine panicked")

// ErrConflict marks an operation invalid in the session's current state
// (mapped to HTTP 409 by the API layer).
var ErrConflict = errors.New("serve: operation not valid in current session state")

// Session is one tenant's simulation: a config store, at most one live
// machine built from the store's running config, and a per-session
// telemetry surface (live.Feed + feed server). Machine execution is
// serialized by execMu — held across a scheduler slice, a synchronous
// StepCycles, a report read, or a drain — while mu guards the cheap
// lifecycle fields so Pause and Info never wait behind a slice.
type Session struct {
	id     string
	limits Limits
	sched  *Scheduler
	store  *Store
	lsrv   *live.Server // per-session feed server; stable across rebuilds

	// interrupt asks the in-flight slice to yield between cycles, so
	// Pause and drain take effect within one machine cycle, not one
	// slice. Reads are lock-free; writes guarded by mu, so StepCycles'
	// clear cannot wipe out a concurrent setter's store.
	interrupt atomic.Bool

	// execMu serializes machine execution and rebuild.
	execMu sync.Mutex
	// Machine state.
	machine    *machine.Machine // guarded by execMu
	eng        engine.Engine    // guarded by execMu
	feed       *live.Feed       // guarded by execMu
	builtSeq   int64            // guarded by execMu; store.CommitSeq the machine was built from
	effLimit   int64            // guarded by execMu; session cycle quota: min(config limit, service quota)
	beforeStep func()           // guarded by execMu; test hook run before each machine cycle, nil otherwise

	// info mirrors builtSeq/effLimit for lock-free Info reads as one
	// atomically-swapped pair, so a reader can never observe a fresh
	// BuiltSeq with a stale CycleQuota (two separate int64 mirrors
	// allowed exactly that tear between their stores). The canonical
	// values live under execMu; writes guarded by execMu.
	info atomic.Pointer[infoMirror]

	mu      sync.Mutex
	state   SessionState // guarded by mu
	name    string       // guarded by mu
	lastErr string       // guarded by mu
}

// infoMirror is the pair Info reads without taking execMu.
type infoMirror struct {
	builtSeq int64
	effLimit int64
}

func newSession(id string, limits Limits, sched *Scheduler) *Session {
	return &Session{
		id:     id,
		limits: limits,
		sched:  sched,
		store:  NewStore(limits.MaxHistory),
		lsrv:   live.NewFeedServer(),
		state:  StateCreated,
	}
}

// ID returns the session identifier (scheduler key and URL path id).
func (s *Session) ID() string { return s.id }

// LiveHandler returns the session's telemetry surface — the same
// /metrics, /snapshot.json, /events, /healthz set ultrasim -serve
// exposes, scoped to this session's feed.
func (s *Session) LiveHandler() http.Handler { return s.lsrv.Handler() }

// Store exposes the session's config store (candidate/running/history).
func (s *Session) Store() *Store { return s.store }

// SessionInfo is the session's row in the /sessions index.
type SessionInfo struct {
	ID    string       `json:"id"`
	Name  string       `json:"name,omitempty"`
	State SessionState `json:"state"`
	// CommitSeq is the newest commit; BuiltSeq the commit the current
	// machine was built from (0 = no machine; differing values mean the
	// machine is stale and rebuilds on next start/step).
	CommitSeq int64 `json:"commit_seq"`
	BuiltSeq  int64 `json:"built_seq"`
	// Cycles is the machine's progress as of the last published
	// telemetry sample; CycleQuota the session's effective cycle budget.
	Cycles     int64  `json:"cycles"`
	CycleQuota int64  `json:"cycle_quota,omitempty"`
	Halted     bool   `json:"halted"`
	Error      string `json:"error,omitempty"`
}

// Info snapshots the session for the index. It never blocks behind an
// in-flight slice: progress counters are read from the last published
// telemetry State rather than the live machine.
func (s *Session) Info() SessionInfo {
	s.mu.Lock()
	info := SessionInfo{
		ID: s.id, Name: s.name, State: s.state,
		CommitSeq: s.store.CommitSeq(),
		Error:     s.lastErr,
	}
	s.mu.Unlock()
	if st := s.lsrv.Current(); st != nil {
		info.Cycles = st.Cycle
		info.Halted = st.Done
	}
	if m := s.info.Load(); m != nil {
		info.BuiltSeq = m.builtSeq
		if m.builtSeq > 0 {
			info.CycleQuota = m.effLimit
		}
	}
	return info
}

// SetName records the free-form session label.
func (s *Session) SetName(name string) {
	s.mu.Lock()
	s.name = name
	s.mu.Unlock()
}

// StageCandidate validates cfg against both the config rules and the
// service quotas, then stages it. All field errors come back together.
func (s *Session) StageCandidate(cfg Config) error {
	if err := s.checkDrained(); err != nil {
		return err
	}
	var fields []FieldError
	if err := cfg.Validate(); err != nil {
		var ve *ValidateError
		if asValidateError(err, &ve) {
			fields = append(fields, ve.Fields...)
		} else {
			return err
		}
	}
	fields = append(fields, s.limits.checkConfig(cfg)...)
	if len(fields) > 0 {
		return &ValidateError{Fields: fields}
	}
	// Validated just above — stage directly rather than re-running the
	// whole rule table (which assembles the guest program) in
	// Store.StageCandidate.
	s.store.stageValidated(cfg)
	return nil
}

// CommitCandidate promotes the candidate to running. The machine built
// from the previous config is now stale: the session drops to Ready and
// the next start or step rebuilds from cycle 0 under the new config.
func (s *Session) CommitCandidate(comment string) (CommitEntry, error) {
	if err := s.checkDrained(); err != nil {
		return CommitEntry{}, err
	}
	e, err := s.store.CommitCandidate(comment)
	if err != nil {
		return e, err
	}
	s.configChanged()
	return e, nil
}

// RollbackRunning restores the previous running config (a fresh commit
// in the history); like CommitCandidate it resets the session to Ready.
func (s *Session) RollbackRunning(comment string) (CommitEntry, error) {
	if err := s.checkDrained(); err != nil {
		return CommitEntry{}, err
	}
	e, err := s.store.RollbackRunning(comment)
	if err != nil {
		return e, err
	}
	s.configChanged()
	return e, nil
}

// configChanged moves the session to Ready after a commit or rollback:
// any in-flight slice is interrupted, and the stale machine is left for
// ensureMachineLocked to replace lazily (builtSeq no longer matches).
func (s *Session) configChanged() {
	s.mu.Lock()
	s.interrupt.Store(true)
	switch s.state {
	case StateDrained:
	default:
		s.state = StateReady
		s.lastErr = ""
	}
	s.mu.Unlock()
}

// StartRun begins or resumes execution: the session joins the shared
// scheduler's round-robin and advances one slice at a time. Valid from
// Ready, Paused or Done-with-newer-commit; 409 otherwise.
func (s *Session) StartRun() error {
	s.mu.Lock()
	switch s.state {
	case StateReady, StatePaused, StateRunning:
	default:
		state := s.state
		s.mu.Unlock()
		return fmt.Errorf("%w: cannot start from %q", ErrConflict, state)
	}
	if _, ok := s.store.Running(); !ok {
		s.mu.Unlock()
		return ErrNoRunning
	}
	s.state = StateRunning
	s.interrupt.Store(false)
	s.mu.Unlock()
	s.sched.Enqueue(s)
	return nil
}

// Pause asks the in-flight slice (if any) to yield and stops scheduling
// further slices. Takes effect within one machine cycle.
func (s *Session) Pause() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StateRunning, StatePaused:
		s.state = StatePaused
		s.interrupt.Store(true)
		return nil
	}
	return fmt.Errorf("%w: cannot pause from %q", ErrConflict, s.state)
}

// StepCycles synchronously advances the machine by up to n cycles
// (stopping early at halt or quota) and reports how many cycles ran.
// Valid when the session is Ready or Paused — stepping a session the
// scheduler is driving would interleave two drivers.
func (s *Session) StepCycles(n int64) (ran int64, err error) {
	if n < 1 {
		return 0, fmt.Errorf("%w: step of %d cycles", ErrConflict, n)
	}
	s.mu.Lock()
	switch s.state {
	case StateReady, StatePaused:
	default:
		state := s.state
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: cannot step from %q", ErrConflict, state)
	}
	s.state = StatePaused
	// Clear any interrupt left over from the Pause that preceded this
	// step. Done under mu, where drain/commit/pause also set the flag,
	// so a concurrent interrupt is either visible as a state change
	// (checked above and again below) or lands after this store and
	// stops the loop.
	s.interrupt.Store(false)
	s.mu.Unlock()

	s.execMu.Lock()
	defer s.execMu.Unlock()
	// Re-check now that execution is ours: a drain may have won the
	// race since the state check above, closing the machine for good —
	// rebuilding it here would run cycles on a deleted session and leak
	// its engine.
	if err := s.checkDrained(); err != nil {
		return 0, err
	}
	if err := s.ensureMachineLocked(); err != nil {
		return 0, err
	}
	if ran, err = s.advanceLocked(n); err != nil {
		return ran, err
	}
	s.finishIfOverLocked()
	return ran, nil
}

// advanceLocked (execMu held) steps the machine by up to n cycles,
// stopping early at halt, at the quota, or at an interrupt — a large
// step must not pin execMu against drain/delete/pause for its whole
// duration — and reports how many cycles ran. A panic out of the machine
// (a reply no PE is waiting for, a worker panic the engine re-raised) is
// this session's failure alone: it is recovered into StateFailed with
// the panic value in Info's Error, the feed is finished and the engine
// released, and the caller — a scheduler worker every other session
// shares, or an API handler — carries on.
func (s *Session) advanceLocked(n int64) (ran int64, err error) {
	m := s.machine
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w at cycle %d: %v", ErrMachinePanic, m.Cycles(), p)
			s.finishFeedLocked()
			s.closeMachineLocked()
			s.failLocked(err)
		}
	}()
	for ran < n && !m.Done() && m.Cycles() < s.effLimit && !s.interrupt.Load() {
		if s.beforeStep != nil {
			s.beforeStep()
		}
		m.Step()
		ran++
	}
	return ran, nil
}

// failLocked (execMu held) moves a session that is not already drained
// to StateFailed, with err for Info to show.
func (s *Session) failLocked(err error) {
	s.mu.Lock()
	if s.state != StateDrained {
		s.state = StateFailed
		s.lastErr = err.Error()
	}
	s.mu.Unlock()
}

// ResetMachine discards the machine; the next start or step rebuilds
// from the running config at cycle 0.
func (s *Session) ResetMachine() error {
	if err := s.checkDrained(); err != nil {
		return err
	}
	// Set the interrupt under mu like every other setter: an unlocked
	// store here could be wiped out by StepCycles' clear racing in
	// between, leaving the discarded machine running a full step.
	s.mu.Lock()
	s.interrupt.Store(true)
	s.mu.Unlock()
	s.execMu.Lock()
	s.closeMachineLocked()
	s.execMu.Unlock()
	s.mu.Lock()
	if s.state != StateDrained {
		if _, ok := s.store.Running(); ok {
			s.state = StateReady
		} else {
			s.state = StateCreated
		}
		s.lastErr = ""
	}
	s.mu.Unlock()
	return nil
}

// ReportJSON returns the machine's Table-1 report as indented JSON —
// the exact bytes a standalone ultrasim run of the same config would
// report. Waits for any in-flight slice to finish (at most one slice).
func (s *Session) ReportJSON() ([]byte, error) {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	if s.machine == nil {
		return nil, fmt.Errorf("%w: no machine built yet", ErrConflict)
	}
	return s.machine.Report().JSON()
}

// drainSession shuts the session down: interrupts any slice, waits for
// it, finishes the feed (so /events followers terminate) and releases
// the engine. Terminal.
func (s *Session) drainSession() {
	s.mu.Lock()
	s.interrupt.Store(true)
	s.state = StateDrained
	s.mu.Unlock()
	s.execMu.Lock()
	s.finishFeedLocked()
	s.closeMachineLocked()
	s.execMu.Unlock()
}

// finishFeedLocked (execMu held) leaves the session's last telemetry
// State published and marked done, however far the session got: with a
// machine, one last sample so the State reflects the final cycle; with
// none — the drain beat the first scheduler slice, or a reset discarded
// the machine — whatever the feed server last held, or an empty State.
// Either way /snapshot.json answers and /events followers terminate.
func (s *Session) finishFeedLocked() {
	if s.feed != nil {
		if last := s.feed.Last(); last == nil || !last.Done {
			s.feed.Publish(s.sampleLocked())
		}
		s.feed.Finish()
		return
	}
	var final live.State
	if cur := s.lsrv.Current(); cur != nil {
		if cur.Done {
			return
		}
		final = *cur
		final.Events = nil // already streamed
	}
	final.Seq++
	final.Done = true
	s.lsrv.Publish(&final)
}

func (s *Session) checkDrained() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateDrained {
		return fmt.Errorf("%w: session is drained", ErrConflict)
	}
	return nil
}

// runSlice advances the machine by one bounded slice on a scheduler
// worker. Returns true when the session still wants CPU (re-enqueue).
func (s *Session) runSlice() bool {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	s.mu.Lock()
	if s.state != StateRunning {
		s.mu.Unlock()
		return false
	}
	s.mu.Unlock()
	if err := s.ensureMachineLocked(); err != nil {
		s.failLocked(err)
		return false
	}
	if _, err := s.advanceLocked(s.limits.Slice); err != nil || s.finishIfOverLocked() {
		return false
	}
	s.mu.Lock()
	again := s.state == StateRunning
	s.mu.Unlock()
	return again
}

// wantsCPU reports whether the session should be on the run queue. The
// scheduler worker calls it (holding the scheduler mutex) after a slice
// finishes and the queued mark is cleared, catching a StartRun whose
// Enqueue the mark swallowed while the slice ran.
func (s *Session) wantsCPU() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == StateRunning
}

// finishIfOverLocked (execMu held) publishes the final telemetry State
// and moves the session to Done when the machine halted or exhausted
// its cycle quota.
func (s *Session) finishIfOverLocked() bool {
	m := s.machine
	if m == nil || (!m.Done() && m.Cycles() < s.effLimit) {
		return false
	}
	s.finishFeedLocked()
	s.mu.Lock()
	if s.state != StateDrained {
		s.state = StateDone
	}
	s.mu.Unlock()
	return true
}

// ensureMachineLocked (execMu held) builds — or rebuilds, after a
// commit/rollback — the machine from the store's running config and
// attaches the observation kit a served run gets (sampler, conformance
// monitor, and the feed with its event tail) on the session's own feed
// server. A session has no -trace, so the kit builds no recorder ring.
func (s *Session) ensureMachineLocked() error {
	// Never (re)build for a drained session: drain closed the machine
	// for good, and a rebuild here would leak the engine (nothing will
	// close it again).
	if err := s.checkDrained(); err != nil {
		return err
	}
	seq := s.store.CommitSeq()
	if s.machine != nil && s.builtSeq == seq {
		return nil
	}
	s.closeMachineLocked()
	cfg, ok := s.store.Running()
	if !ok {
		return ErrNoRunning
	}
	d := cfg.WithDefaults()
	m, _, eng, err := d.Build()
	if err != nil {
		return err
	}
	kit := live.Flags{}.New(0, d.SampleEvery, s.lsrv, nil)
	m.Observe(kit.Observers)
	// Nothing listens (the feed server is mounted on the service's own
	// listener), so Start has nothing to print and nothing to fail.
	_ = kit.Start(io.Discard, networkConfig(d), d.MMLatency, live.Windowed(m.Report))
	s.machine, s.eng, s.feed = m, eng, kit.Feed
	s.builtSeq = seq
	s.effLimit = d.Limit
	if s.limits.MaxCycles > 0 && s.effLimit > s.limits.MaxCycles {
		s.effLimit = s.limits.MaxCycles
	}
	s.info.Store(&infoMirror{builtSeq: seq, effLimit: s.effLimit})
	return nil
}

func (s *Session) closeMachineLocked() {
	if s.eng != nil {
		s.eng.Close()
	}
	s.machine, s.eng, s.feed = nil, nil, nil
	s.builtSeq = 0
	s.info.Store(&infoMirror{})
}

// sampleLocked builds an obs.Snapshot of the machine's current
// counters for the final publish.
func (s *Session) sampleLocked() obs.Snapshot {
	m := s.machine
	sn := obs.Snapshot{Cycle: m.Cycles()}
	if sam := m.Sampler(); sam != nil {
		if last, ok := sam.Last(); ok {
			sn = last
			sn.Cycle = m.Cycles()
		}
	}
	return sn
}
