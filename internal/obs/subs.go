package obs

import "math/bits"

// Subs is a set of event consumers. An instrumented unit holds the set
// attached to its component, computed when a consumer is attached and
// never per cycle; an emit site asks it who wants the event at hand and
// builds the event only for a non-empty answer:
//
//	if to := n.fan.Subs().For(kind, r.TC.Traced()); to != 0 {
//		n.fan.Emit(obs.Event{To: to, ...})
//	}
type Subs uint8

const (
	// SubRecord is the event recorder (or any Probe attached with
	// SetProbe): it takes every kind but the trace-only ones.
	SubRecord Subs = 1 << iota
	// SubTrace is the request tracer (internal/obs/reqtrace): it takes
	// the events of sampled carriers only.
	SubTrace
	// SubProf is the guest profiler (internal/obs/prof): it takes
	// combines and completed serves for its contention heatmap and the
	// PEs' KindProf events for everything else.
	SubProf
)

// For narrows s to the consumers of one event of kind k (the audience
// table of the package documentation); traced says whether the message
// it concerns is sampled, so a tracer sampling nothing costs one test.
func (s Subs) For(k Kind, traced bool) Subs {
	switch k {
	case KindStageDepart, KindReplyDepart:
		s &= SubTrace
	case KindCombine, KindMNIServe:
	case KindProfCycle, KindProfIssue, KindProfDeliver:
		s &= SubProf
	default:
		s &^= SubProf
	}
	if !traced {
		s &^= SubTrace
	}
	return s
}

// Fanout delivers a component's events to the consumers attached to it;
// it is the only code that knows who listens. Switches, modules, PEs and
// their caches emit into it directly on the simulating goroutine, so
// every consumer sees the events in emission order and needs no locking
// or per-worker state.
type Fanout struct {
	subs Subs
	dst  [3]Probe // by bit of Subs: recorder, tracer, profiler
}

// Subs returns the set of attached consumers. The pointer stays current
// across Subscribe, so a unit emitting for this component holds it.
func (f *Fanout) Subs() *Subs { return &f.subs }

// Subscribe attaches p as consumer s (one of the Sub constants),
// replacing an earlier one; a nil p detaches it.
func (f *Fanout) Subscribe(s Subs, p Probe) {
	f.dst[bits.TrailingZeros8(uint8(s))] = p
	f.subs &^= s
	if p != nil {
		f.subs |= s
	}
}

// Emit implements Probe: ev goes to every attached consumer named in
// ev.To.
func (f *Fanout) Emit(ev Event) {
	for i, p := range f.dst {
		if p != nil && ev.To&(1<<i) != 0 {
			p.Emit(ev)
		}
	}
}
