// Package guardmutants holds copies of one PE emit site and one cache
// emit site with the obs.Subs.For audience guard stripped: the event is
// built and sent whether or not anybody listens. probegate must flag
// both; `make lint-mutants` enforces it.
package guardmutants

import "ultracomputer/internal/obs"

// pe mirrors the fields of pe.PE an emit site reads.
type pe struct {
	id    int
	subs  *obs.Subs
	out   obs.Probe
	scale int64
	stall obs.StallCause
}

// closeStall is pe.PE.closeStall (internal/pe/pe.go) without its guard.
func (p *pe) closeStall(cycle int64) {
	p.out.Emit(obs.Event{ // want `obs\.Probe Emit on p\.out without a dominating nil check`
		To: obs.SubRecord, Cycle: cycle * p.scale, Kind: obs.KindStallEnd,
		PE: int32(p.id), Stage: -1, MM: -1, Copy: -1, Cause: p.stall,
	})
	p.stall = obs.CauseNone
}
