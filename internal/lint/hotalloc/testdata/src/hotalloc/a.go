package hotalloc

import "fmt"

type point struct{ x, y int }

type loop struct {
	buf    []int
	last   *point
	tables map[int]int
}

// Tick is a cycle-loop root. Appending to a receiver-owned buffer is
// fine (steady-state growth amortizes to zero); the allocations live in
// the helper one call down.
func (l *loop) Tick(cycle int64) {
	l.buf = append(l.buf, int(cycle))
	l.helper()
	//ultravet:ok hotalloc tables are built once on the first tick
	l.cold()
}

func (l *loop) helper() {
	s := make([]int, 8)      // want `make\(\[\]int\)`
	local := []int{1, 2}     // want `composite \[\]int literal`
	local = append(local, 3) // want `append to function-local slice local`
	fmt.Println(s, local)    // want `fmt\.Println`
	p := &point{1, 2}        // want `address of composite literal`
	x := 0
	f := func() { x++ } // want `closure captures variables`
	f()
	l.last = p
	//ultravet:ok hotalloc scratch buffer amortizes to zero growth
	scratch := make([]byte, 0, 64)
	_ = scratch
	if l.last == nil {
		// Allocations feeding panic are crash paths, never charged to
		// the steady-state cycle loop.
		panic(fmt.Sprintf("loop %p has no last point", l))
	}
}

// cold is only reachable through the suppressed call edge in Tick: its
// allocation is not charged to the cycle loop.
func (l *loop) cold() {
	l.tables = make(map[int]int)
}

// setup is not reachable from any cycle-loop root.
func setup() []int {
	return make([]int, 1024)
}

// ring is generic: a call through one of its instantiations reaches the
// generic method's body.
type ring[T any] struct{ items []T }

func (r *ring[T]) grow() {
	r.items = make([]T, 2*len(r.items)+1) // want `make\(\[\]T\)`
}

type ringStepper struct{ r ring[int] }

func (s *ringStepper) Step() { s.r.grow() }
