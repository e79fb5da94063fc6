// Package allocmutants holds copies of two cycle-path functions with a
// per-cycle heap allocation seeded into each: the switch queue's push
// building a fresh backing array per call, and a phase body building a
// capturing closure per unit. hotalloc must flag both; `make
// lint-mutants` enforces it.
package allocmutants

import "ultracomputer/internal/msg"

// reqEntry and reqQueue mirror internal/network/queue.go.
type reqEntry struct {
	req      msg.Request
	combined bool
}

type reqQueue struct {
	entries []reqEntry
	head    int
	packets int
	cap     int
}

// push is network.reqQueue.push reclaiming the popped prefix by copying
// the live entries into a new array on every call, instead of sliding
// them down the one it already owns.
func (q *reqQueue) push(r *msg.Request) {
	live := make([]reqEntry, len(q.entries)-q.head, q.cap) // want `make\(\[\]reqEntry\)`
	copy(live, q.entries[q.head:])
	q.entries, q.head = live, 0
	q.entries = append(q.entries, reqEntry{req: *r})
	q.packets += r.Packets()
}

// link mirrors the part of a network link that feeds a queue.
type link struct {
	q    reqQueue
	in   msg.Request
	full bool
}

// Step is the root: one arriving request a cycle goes through push.
func (l *link) Step(cycle int64) {
	if l.full && l.q.packets+l.in.Packets() <= l.q.cap {
		l.q.push(&l.in)
		l.full = false
	}
}
