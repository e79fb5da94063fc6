// Fixture for sharecheck's second rule: goroutine launches on cycle
// paths.
package gostmt

type unit struct {
	local int64
	queue []int64
}

// Tick is a cycle-path root: goroutine launches below it are flagged,
// including through helpers.
func (u *unit) Tick() {
	go u.drain() // want `goroutine launched on a phase path \(reachable from Tick\)`
	u.helper()
}

func (u *unit) helper() {
	go func() { // want `goroutine launched on a phase path \(reachable from helper\)`
		u.local = 0
	}()
}

// Step shows that the rule honours a suppression like every other
// finding.
func (u *unit) Step() {
	go u.drain() //ultravet:ok sharecheck fixture: suppression is honoured
}

// Launch is not a cycle-path root and not reachable from one, so it may
// use goroutines freely (host-side setup code does).
func (u *unit) Launch() {
	go u.drain()
}

func (u *unit) drain() { u.queue = u.queue[:0] }

// Collect is also a root.
func (u *unit) Collect() {
	go u.drain() // want `goroutine launched on a phase path \(reachable from Collect\)`
}
