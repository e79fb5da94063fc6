package lockcheck

import "sync"

// gauge exercises the switch, select and type-switch arms the walker
// runs from one entry state and meets at the exit.
type gauge struct {
	mu sync.Mutex
	v  int // guarded by mu
}

// SwitchArmUnlocks: one arm releases mu before it writes v.
func (g *gauge) SwitchArmUnlocks(k int) {
	g.mu.Lock()
	switch k {
	case 0:
		g.v = 0
		g.mu.Unlock()
	default:
		g.mu.Unlock()
		g.v++ // want `write to \(gauge\)\.v without holding \(gauge\)\.mu`
	}
}

// SelectKeepsLock: every arm, default included, leaves with mu held, so
// the access after the select is clean.
func (g *gauge) SelectKeepsLock(c chan int) {
	g.mu.Lock()
	select {
	case x := <-c:
		g.v = x
	case c <- 1:
		g.v++
	default:
		g.v--
	}
	g.v *= 2
	g.mu.Unlock()
}

// TypeSwitchMeet: the arm that returns leaves the meet; the nil arm
// falls out of the switch without mu, so the read after it is flagged.
func (g *gauge) TypeSwitchMeet(x any) int {
	g.mu.Lock()
	switch y := x.(type) {
	case int:
		g.v = y
	case string:
		g.mu.Unlock()
		return len(y)
	case nil:
		g.mu.Unlock()
	}
	return g.v // want `read of \(gauge\)\.v without holding \(gauge\)\.mu`
}
