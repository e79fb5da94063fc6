// Package sim provides the simulation kernel pieces every hardware model
// in this repository shares: deterministic pseudo-random number
// generation and statistics accumulators. The cycle itself is driven by
// the execution engine (internal/engine) through machine.Step and
// trace.RunEngine.
//
// The Ultracomputer paper evaluates its design by simulation (the NETSIM
// and WASHCLOTH simulators of Snir and Gottlieb); this package plays the
// same role. All simulations are deterministic given a seed so that every
// table and figure in EXPERIMENTS.md is exactly reproducible.
package sim
