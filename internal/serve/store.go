package serve

import (
	"errors"
	"sync"
	"time"
)

// Store errors.
var (
	ErrNoCandidate = errors.New("serve: no candidate config staged")
	ErrNoRunning   = errors.New("serve: no running config committed")
	ErrNoRollback  = errors.New("serve: no earlier commit to roll back to")
)

// CommitEntry records one committed configuration in a session's
// history: the config itself plus when and why it became running.
type CommitEntry struct {
	// Seq numbers commits per session, from 1.
	Seq int64 `json:"seq"`
	// Time is the wall-clock commit instant.
	Time time.Time `json:"time"`
	// Comment is the client-supplied reason, if any.
	Comment string `json:"comment,omitempty"`
	// Rollback marks entries created by RollbackRunning rather than a
	// candidate commit.
	Rollback bool   `json:"rollback,omitempty"`
	Config   Config `json:"config"`
}

// Store holds one session's configuration state: an optional staged
// candidate, the running config (the one the machine is built from),
// and a bounded history of past commits. The arca-router model: edits
// land on the candidate, which must survive Validate before it can be
// staged at all; CommitCandidate atomically promotes it to running;
// RollbackRunning restores the previous running config as a new commit,
// so history is append-only and every state the machine ever ran is in
// it.
type Store struct {
	mu         sync.Mutex
	candidate  *Config       // guarded by mu
	running    *Config       // guarded by mu
	history    []CommitEntry // guarded by mu; newest last, len <= maxHistory
	seq        int64         // guarded by mu
	maxHistory int
}

// NewStore returns a store keeping at most maxHistory (>= 1) commit
// entries.
func NewStore(maxHistory int) *Store {
	return &Store{maxHistory: maxHistory}
}

// StageCandidate validates cfg and, only if valid, stages it as the
// session's candidate (replacing any prior candidate). Invalid configs
// are rejected here — at candidate time — with the full field-level
// *ValidateError, so a bad config can never reach commit.
func (s *Store) StageCandidate(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.stageValidated(cfg)
	return nil
}

// stageValidated stages cfg without re-running Validate, for callers
// that already ran the rule table (it assembles the guest program, so
// running it twice per stage request is real work). The caller is
// responsible for having validated cfg.
func (s *Store) stageValidated(cfg Config) {
	s.mu.Lock()
	s.candidate = &cfg
	s.mu.Unlock()
}

// Candidate returns the staged candidate config, if any.
func (s *Store) Candidate() (Config, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.candidate == nil {
		return Config{}, false
	}
	return *s.candidate, true
}

// DiscardCandidate drops the staged candidate without committing it.
func (s *Store) DiscardCandidate() {
	s.mu.Lock()
	s.candidate = nil
	s.mu.Unlock()
}

// Running returns the committed running config, if any.
func (s *Store) Running() (Config, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running == nil {
		return Config{}, false
	}
	return *s.running, true
}

// CommitCandidate promotes the staged candidate to running, clears the
// candidate slot, and appends a history entry. The returned entry's Seq
// identifies the commit.
func (s *Store) CommitCandidate(comment string) (CommitEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.candidate == nil {
		return CommitEntry{}, ErrNoCandidate
	}
	cfg := *s.candidate
	s.candidate = nil
	s.running = &cfg
	return s.appendLocked(cfg, comment, false), nil
}

// RollbackRunning restores the running config that preceded the current
// one, recorded as a fresh history entry (history never rewinds). Any
// staged candidate survives untouched.
func (s *Store) RollbackRunning(comment string) (CommitEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running == nil {
		return CommitEntry{}, ErrNoRunning
	}
	// The newest entry is the current running config; the one before it
	// is the rollback target.
	if len(s.history) < 2 {
		return CommitEntry{}, ErrNoRollback
	}
	prev := s.history[len(s.history)-2].Config
	s.running = &prev
	return s.appendLocked(prev, comment, true), nil
}

// History returns the commit log, oldest first (bounded; old entries
// beyond the cap have been dropped).
func (s *Store) History() []CommitEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CommitEntry, len(s.history))
	copy(out, s.history)
	return out
}

// CommitSeq reports the Seq of the newest commit (0 before any commit).
func (s *Store) CommitSeq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

func (s *Store) appendLocked(cfg Config, comment string, rollback bool) CommitEntry {
	s.seq++
	e := CommitEntry{Seq: s.seq, Time: time.Now(), Comment: comment, Rollback: rollback, Config: cfg}
	s.history = append(s.history, e)
	if len(s.history) > s.maxHistory {
		// Drop the oldest; a rolling window of recent commits is enough
		// for rollback and audit.
		copy(s.history, s.history[len(s.history)-s.maxHistory:])
		s.history = s.history[:s.maxHistory]
	}
	return e
}
