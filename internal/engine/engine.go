// Package engine is the seam through which machine.Machine.Step runs
// the phases of a cycle. A cycle of the simulated machine decomposes into
// a sequence of phases, each a loop over units (memory modules, PEs), and
// an Engine runs one such phase. The simulator is single-threaded: Serial
// executes every phase inline on the calling goroutine, in ascending unit
// order, which is the serialization every golden, report and trace is
// pinned against. The seam remains only so that the benchmark's phase
// timer (bench/guest.go) can wrap each phase in a span.
package engine

// Engine executes the units of one simulation phase.
//
// Run calls fn over index ranges that exactly cover [0, n), in ascending
// order, and returns after all of them have completed. fn receives the
// range [lo, hi) and a worker index, always 0.
type Engine interface {
	Run(n int, fn func(lo, hi, worker int))
}

// Serial executes every phase inline on the calling goroutine.
type Serial struct{}

// Run calls fn(0, n, 0) when there is any unit to run.
func (Serial) Run(n int, fn func(lo, hi, worker int)) {
	if n > 0 {
		fn(0, n, 0)
	}
}

// Close does nothing: a Serial engine holds no resources. It remains for
// the callers of serve.Config.Build that release what Build returns.
func (Serial) Close() {}
