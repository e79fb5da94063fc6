// Fixture for the probegate analyzer: guarded and unguarded Emit call
// sites on obs.Probe values.
package probegate

import "ultracomputer/internal/obs"

type stage struct {
	probe obs.Probe
	cycle int64
}

// unguarded emits without any nil check: both sites are flagged.
func (s *stage) unguarded(ev obs.Event) {
	s.probe.Emit(ev) // want `obs\.Probe Emit on s\.probe without a dominating nil check`
	var p obs.Probe
	p.Emit(ev) // want `obs\.Probe Emit on p without a dominating nil check`
}

// enclosingGuard is the canonical hot-path shape: event construction and
// Emit both live inside the nil check.
func (s *stage) enclosingGuard() {
	if s.probe != nil {
		s.probe.Emit(obs.Event{Cycle: s.cycle})
	}
}

// earlyReturn guards the rest of the function body.
func (s *stage) earlyReturn(ev obs.Event) {
	if s.probe == nil {
		return
	}
	s.probe.Emit(ev)
}

// conjunctGuard allows the nil check to be one && conjunct.
func (s *stage) conjunctGuard(ev obs.Event, verbose bool) {
	if verbose && s.probe != nil {
		s.probe.Emit(ev)
	}
}

// wrongGuard checks one probe but emits on another: flagged.
func (s *stage) wrongGuard(other obs.Probe, ev obs.Event) {
	if other != nil {
		s.probe.Emit(ev) // want `obs\.Probe Emit on s\.probe without a dominating nil check`
	}
}

// elseBranch emits on the branch where the probe is known nil: flagged.
func (s *stage) elseBranch(ev obs.Event) {
	if s.probe != nil {
		s.probe.Emit(ev)
	} else {
		s.probe.Emit(ev) // want `obs\.Probe Emit on s\.probe without a dominating nil check`
	}
}

// invertedEarlyReturn proves non-nil on the else path of an == check.
func (s *stage) invertedEarlyReturn(ev obs.Event) {
	if s.probe == nil {
		s.cycle++
	} else {
		s.probe.Emit(ev)
	}
	s.probe.Emit(ev) // want `obs\.Probe Emit on s\.probe without a dominating nil check`
}

// closure starts a fresh guard scope: the outer check does not dominate
// the literal's body (it may run later, after the probe is detached).
func (s *stage) closure(ev obs.Event) func() {
	if s.probe == nil {
		return nil
	}
	return func() {
		s.probe.Emit(ev) // want `obs\.Probe Emit on s\.probe without a dominating nil check`
	}
}

// otherEmit has the right method name but not the obs.Probe type: not
// this analyzer's business.
type sink struct{}

func (sink) Emit(obs.Event) {}

func otherEmit(ev obs.Event) {
	var s sink
	s.Emit(ev)
}

// unit is the shape of a network or memory emit site: an audience set
// and a destination that is never nil-tested.
type unit struct {
	subs obs.Subs
	out  obs.Probe
}

// maskGuard is the canonical audience-mask shape: the event is built and
// emitted only for a non-empty audience obtained from For.
func (u *unit) maskGuard(cycle int64, traced bool) {
	if to := u.subs.For(obs.KindInject, traced); to != 0 {
		u.out.Emit(obs.Event{To: to, Cycle: cycle})
	}
}

// narrowedMask allows the audience to be narrowed further, and the test
// to be one && conjunct.
func (u *unit) narrowedMask(cycle int64, traced, verbose bool) {
	if to := u.subs.For(obs.KindReplyHop, traced) & obs.SubTrace; verbose && to != 0 {
		u.out.Emit(obs.Event{To: to, Cycle: cycle})
	}
}

// bareSink emits on the destination with no guard at all: flagged.
func (u *unit) bareSink(ev obs.Event) {
	u.out.Emit(ev) // want `obs\.Probe Emit on u\.out without a dominating nil check`
}

// notFromFor tests a mask that For never narrowed: flagged.
func (u *unit) notFromFor(cycle int64) {
	if to := u.subs; to != 0 {
		u.out.Emit(obs.Event{To: to, Cycle: cycle}) // want `obs\.Probe Emit on u\.out without a dominating nil check`
	}
}

// wrongAddressee guards one audience but addresses the event to
// another: flagged.
func (u *unit) wrongAddressee(cycle int64, traced bool) {
	if to := u.subs.For(obs.KindInject, traced); to != 0 {
		u.out.Emit(obs.Event{To: u.subs, Cycle: cycle}) // want `obs\.Probe Emit on u\.out without a dominating nil check`
	}
}

// untested obtains the audience but never tests it: flagged.
func (u *unit) untested(cycle int64, traced bool) {
	to := u.subs.For(obs.KindInject, traced)
	u.out.Emit(obs.Event{To: to, Cycle: cycle}) // want `obs\.Probe Emit on u\.out without a dominating nil check`
}

// accepted is bareSink again, accepted in source: not flagged.
func (u *unit) accepted(ev obs.Event) {
	//ultravet:ok probegate the caller has tested the audience
	u.out.Emit(ev)
}
