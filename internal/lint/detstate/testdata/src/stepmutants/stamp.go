package stepmutants

import "time"

// stepper mirrors the fields of network.Stepper its Step reads.
type stepper struct {
	phCycle int64
	stages  int
	started []int64
}

// Step is network.Stepper.Step (internal/network/stepper.go) with a
// helper that records when each stage's phase began — in host time.
func (st *stepper) Step(cycle int64) {
	st.phCycle = cycle
	for s := 0; s < st.stages; s++ {
		st.stamp(s)
	}
}

// stamp is not a root; it is on the tick path because Step calls it.
func (st *stepper) stamp(stage int) {
	st.started[stage] = time.Now().UnixNano() // want `call to time\.Now on a tick path`
}
