// Fixture for the live-telemetry publish pattern (internal/obs/live):
// a tick path may hand a frozen, already-copied snapshot to the HTTP
// side with a single atomic pointer store, but it must not consult the
// wall clock or drain maps unsorted while building one.
package detstate

import (
	"sync/atomic"
	"time"
)

type snapshot struct {
	cycle  int64
	queues []int
}

type publisher struct {
	cur      atomic.Pointer[snapshot]
	inflight map[uint64]int
}

// Step is a tick-path root. The copy-on-sample hand-off — allocate a
// fresh snapshot, fill it from simulator state, publish it with one
// atomic store — is deterministic, so nothing here is flagged.
func (p *publisher) Step(cycle int64) {
	sn := &snapshot{cycle: cycle, queues: make([]int, 4)}
	for i := range sn.queues {
		sn.queues[i] = i
	}
	p.cur.Store(sn)
}

// Collect is also a root: stamping the snapshot with wall time or walking
// the in-flight map in hash order would leak nondeterminism into the
// published state, and both are flagged.
func (p *publisher) Collect(cycle int64) {
	sn := &snapshot{cycle: time.Now().UnixNano()} // want `call to time\.Now on a tick path`
	for id := range p.inflight {                  // want `range over map on a tick path`
		sn.queues = append(sn.queues, int(id))
	}
	p.cur.Store(sn)
}

// Scrape is not a root: an HTTP-handler-side reader may use the wall
// clock freely.
func (p *publisher) Scrape() (int64, int64) {
	sn := p.cur.Load()
	if sn == nil {
		return 0, time.Now().Unix()
	}
	return sn.cycle, time.Now().Unix()
}
