// Fixture for the detstate analyzer: nondeterminism sources inside and
// outside tick paths.
package detstate

import (
	"math/rand"
	"sort"
	"time"
)

type machine struct {
	inflight map[uint64]int
	seen     []int64
	rng      *rand.Rand
}

// Step is a tick-path root: everything below is flagged.
func (m *machine) Step(cycle int64) {
	m.seen = append(m.seen, time.Now().UnixNano()) // want `call to time\.Now on a tick path`
	jitter := rand.Intn(4)                         // want `use of global math/rand\.Intn on a tick path`
	for id := range m.inflight {                   // want `range over map on a tick path`
		m.seen = append(m.seen, int64(id)+int64(jitter))
	}
	m.helper()
}

// helper is not named like a root, but it is reachable from Step, so its
// body is on the tick path too.
func (m *machine) helper() {
	_ = time.Since(time.Unix(0, 0)) // want `call to time\.Since on a tick path`
	go m.tick()                     // want `goroutine launched on a tick path \(reachable from helper\)`
	//ultravet:ok detstate host-side progress meter, never fed back into the simulation
	_ = time.Now()
}

// sortedTick shows the blessed pattern: collecting keys into a slice and
// sorting is deterministic, so neither loop is flagged.
func (m *machine) tick() {
	keys := make([]uint64, 0, len(m.inflight))
	for k := range m.inflight {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		m.seen = append(m.seen, int64(m.inflight[k]))
	}
	// A component-owned seeded generator is fine on a tick path.
	m.seen = append(m.seen, int64(m.rng.Intn(8)))
}

// Setup is not reachable from any root: wall clock and global rand are
// allowed outside the cycle loop.
func Setup() *machine {
	rand.Seed(time.Now().UnixNano())
	m := &machine{
		inflight: map[uint64]int{},
		rng:      rand.New(rand.NewSource(1)),
	}
	for id := range m.inflight {
		m.seen = append(m.seen, int64(id))
	}
	return m
}
