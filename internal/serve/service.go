package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Limits is the service's capacity policy: what admission control
// enforces at session-create and config-stage time, and how the shared
// worker budget is sliced.
type Limits struct {
	// MaxSessions caps live (non-drained) sessions; creation past the
	// cap is rejected with a CapacityError (HTTP 503).
	MaxSessions int `json:"max_sessions"`
	// MaxPEs, MaxPorts and MaxMemoryWords are per-session quotas checked
	// when a config is staged (field-level errors, so clients see them
	// next to any validation problems). MaxPorts bounds k^stages — the
	// network's port count, which drives the build-time allocation
	// footprint independently of the populated PE count. MaxMemoryWords
	// bounds pes × local_words, the private memory the session's guests
	// may touch: pages are allocated on first store (4 KiB each), so the
	// quota is what a running guest can come to hold, not what a build
	// allocates, and admission counts the bound.
	MaxPEs         int   `json:"max_pes"`
	MaxPorts       int   `json:"max_ports"`
	MaxMemoryWords int64 `json:"max_memory_words"`
	// MaxCycles clamps each session's cycle budget regardless of the
	// config's own limit.
	MaxCycles int64 `json:"max_cycles"`
	// Workers is the shared scheduler's worker count; Slice the
	// round-robin grant in network cycles.
	Workers int   `json:"workers"`
	Slice   int64 `json:"slice"`
	// MaxHistory bounds each session's commit log (<= 0 takes the
	// default).
	MaxHistory int `json:"max_history"`
}

// DefaultLimits is the service's default capacity policy.
func DefaultLimits() Limits {
	return Limits{
		MaxSessions:    8,
		MaxPEs:         256,
		MaxPorts:       1 << 16,
		MaxMemoryWords: 1 << 22,
		MaxCycles:      50_000_000,
		Workers:        2,
		Slice:          2048,
		MaxHistory:     16,
	}
}

// withDefaults fills zero fields from DefaultLimits.
func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxSessions == 0 {
		l.MaxSessions = d.MaxSessions
	}
	if l.MaxPEs == 0 {
		l.MaxPEs = d.MaxPEs
	}
	if l.MaxPorts == 0 {
		l.MaxPorts = d.MaxPorts
	}
	if l.MaxMemoryWords == 0 {
		l.MaxMemoryWords = d.MaxMemoryWords
	}
	if l.MaxCycles == 0 {
		l.MaxCycles = d.MaxCycles
	}
	if l.Workers == 0 {
		l.Workers = d.Workers
	}
	if l.Slice == 0 {
		l.Slice = d.Slice
	}
	if l.MaxHistory <= 0 {
		l.MaxHistory = d.MaxHistory
	}
	return l
}

// checkConfig applies the per-session quotas to a config, returning
// field-level errors in the same shape as Validate.
func (l Limits) checkConfig(cfg Config) []FieldError {
	d := cfg.WithDefaults()
	var fields []FieldError
	if l.MaxPEs > 0 && d.PEs > l.MaxPEs {
		fields = append(fields, FieldError{Field: "pes",
			Msg: fmt.Sprintf("%d PEs exceeds the per-session quota of %d", d.PEs, l.MaxPEs)})
	}
	// Ports is 0 for a shape Validate refuses, so only a valid shape meets
	// the quota.
	if l.MaxPorts > 0 && networkConfig(d).Ports() > l.MaxPorts {
		fields = append(fields, FieldError{Field: "stages",
			Msg: fmt.Sprintf("k^stages network ports exceed the per-session quota of %d", l.MaxPorts)})
	}
	// By division, not d.MemoryWords(): the product of two wild fields
	// can wrap to something small.
	if l.MaxMemoryWords > 0 && d.PEs >= 1 && int64(d.LocalWords) > l.MaxMemoryWords/int64(d.PEs) {
		fields = append(fields, FieldError{Field: "local_words",
			Msg: fmt.Sprintf("%d × %d private-memory words (pes × local_words) exceeds the per-session quota of %d", d.PEs, d.LocalWords, l.MaxMemoryWords)})
	}
	return fields
}

// CapacityError is admission control's rejection: the service is at its
// session cap. Mapped to HTTP 503 so clients know to retry later.
type CapacityError struct {
	Live int `json:"live_sessions"`
	Max  int `json:"max_sessions"`
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("serve: at capacity (%d/%d sessions); retry after a session is deleted or drains", e.Live, e.Max)
}

// ErrDraining rejects new sessions once shutdown has begun.
var ErrDraining = errors.New("serve: service is draining")

// ErrNotFound marks an unknown session id (HTTP 404).
var ErrNotFound = errors.New("serve: no such session")

// Service is the multi-tenant simulation service: a set of sessions
// sharing one scheduler's worker budget, under one admission-control
// policy.
type Service struct {
	limits Limits
	sched  *Scheduler

	mu       sync.Mutex
	sessions map[string]*Session // guarded by mu
	nextID   int64               // guarded by mu
	draining bool                // guarded by mu
}

// NewService starts a service with the given capacity policy (zero
// fields take defaults).
func NewService(limits Limits) *Service {
	l := limits.withDefaults()
	return &Service{
		limits:   l,
		sched:    NewScheduler(l.Workers),
		sessions: make(map[string]*Session),
	}
}

// Limits returns the resolved capacity policy.
func (sv *Service) Limits() Limits { return sv.limits }

// CreateSession admits a new session, or rejects it with a
// *CapacityError when the live-session count is at MaxSessions.
// Drained sessions don't count against capacity (but stay listed until
// deleted).
func (sv *Service) CreateSession(name string) (*Session, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.draining {
		return nil, ErrDraining
	}
	live := 0
	for _, s := range sv.sessions {
		if s.Info().State != StateDrained {
			live++
		}
	}
	if live >= sv.limits.MaxSessions {
		return nil, &CapacityError{Live: live, Max: sv.limits.MaxSessions}
	}
	sv.nextID++
	id := fmt.Sprintf("s%d", sv.nextID)
	s := newSession(id, sv.limits, sv.sched)
	s.SetName(name)
	sv.sessions[id] = s
	return s, nil
}

// Session looks up a session by id.
func (sv *Service) Session(id string) (*Session, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	s, ok := sv.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return s, nil
}

// DeleteSession drains a session and removes it from the index.
func (sv *Service) DeleteSession(id string) error {
	sv.mu.Lock()
	s, ok := sv.sessions[id]
	if ok {
		delete(sv.sessions, id)
	}
	sv.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	s.drainSession()
	return nil
}

// Sessions returns the index rows, ordered by id.
func (sv *Service) Sessions() []SessionInfo {
	sv.mu.Lock()
	list := make([]*Session, 0, len(sv.sessions))
	for _, s := range sv.sessions {
		list = append(list, s)
	}
	sv.mu.Unlock()
	infos := make([]SessionInfo, len(list))
	for i, s := range list {
		infos[i] = s.Info()
	}
	sort.Slice(infos, func(i, j int) bool {
		if len(infos[i].ID) != len(infos[j].ID) {
			return len(infos[i].ID) < len(infos[j].ID)
		}
		return infos[i].ID < infos[j].ID
	})
	return infos
}

// Health is the service-level /healthz body: capacity in, capacity
// used, and the scheduler's backlog.
type Health struct {
	OK       bool   `json:"ok"`
	Draining bool   `json:"draining"`
	Sessions int    `json:"sessions"`
	Live     int    `json:"live_sessions"`
	Running  int    `json:"running_sessions"`
	Queued   int    `json:"queued_sessions"`
	Limits   Limits `json:"limits"`
}

// Healthz snapshots service health.
func (sv *Service) Healthz() Health {
	infos := sv.Sessions()
	h := Health{OK: true, Sessions: len(infos), Limits: sv.limits, Queued: sv.sched.QueueLen()}
	sv.mu.Lock()
	h.Draining = sv.draining
	sv.mu.Unlock()
	for _, in := range infos {
		if in.State != StateDrained {
			h.Live++
		}
		if in.State == StateRunning {
			h.Running++
		}
	}
	return h
}

// Drain shuts the service down gracefully: stop admitting sessions,
// interrupt and finish every session (publishing each one's final
// telemetry State), then stop the scheduler workers. Idempotent.
func (sv *Service) Drain() {
	sv.mu.Lock()
	sv.draining = true
	list := make([]*Session, 0, len(sv.sessions))
	for _, s := range sv.sessions {
		list = append(list, s)
	}
	sv.mu.Unlock()
	for _, s := range list {
		s.drainSession()
	}
	sv.sched.Close()
}
