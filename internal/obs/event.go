package obs

import (
	"fmt"

	"ultracomputer/internal/msg"
)

// Kind identifies what an Event records; see the package documentation
// for the schema.
type Kind uint8

const (
	KindInject Kind = iota
	KindStageArrive
	KindCombine
	KindMMArrive
	KindMNIBegin
	KindMNIServe
	KindDecombine
	KindReplyHop
	KindReplyDeliver
	KindStallBegin
	KindStallEnd
	KindCacheHit
	KindCacheMiss
	KindCacheWriteBack

	// Dequeue-side hops, emitted only on the request-tracing stream
	// (internal/obs/reqtrace): a request popped from a ToMM/PNI queue
	// into its link server, and a reply popped from a ToPE/MNI queue.
	// Together with the arrive kinds above they bracket per-hop queue
	// residency.
	KindStageDepart
	KindReplyDepart

	// Guest-profiler moments, emitted by the PEs for the profiler alone
	// (internal/obs/prof): one elapsed PE cycle, a shared request leaving
	// the PE, its reply arriving.
	KindProfCycle
	KindProfIssue
	KindProfDeliver

	numKinds
)

var kindNames = [...]string{
	"Inject", "StageArrive", "Combine", "MMArrive", "MNIBegin",
	"MNIServe", "Decombine", "ReplyHop", "ReplyDeliver", "StallBegin",
	"StallEnd", "CacheHit", "CacheMiss", "CacheWriteBack",
	"StageDepart", "ReplyDepart", "ProfCycle", "ProfIssue", "ProfDeliver",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// StallCause attributes a run of idle PE cycles to its hardware reason.
type StallCause uint8

const (
	// CauseNone marks a PE that is not stalled.
	CauseNone StallCause = iota
	// CauseMemory is the §3.5 scoreboard: a consumed register is locked
	// awaiting a central-memory reply, or a fence is draining.
	CauseMemory
	// CauseNetFull is queue-full backpressure: every network copy's PNI
	// queue refused the injection this cycle.
	CauseNetFull
	// CausePipeline is the PNI's pipelining restriction: the
	// outstanding-request limit is reached or another request to the
	// same location is already in flight (§3.4).
	CausePipeline
)

var causeNames = [...]string{"none", "memory", "net-full", "pipeline"}

// String names the cause.
func (c StallCause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("StallCause(%d)", uint8(c))
}

// Event is one observation. It is a flat value type so that emitting
// into a preallocated Recorder never allocates; which fields are
// meaningful depends on Kind (see the package documentation).
//
// The machine-shape fields are as narrow as network.Config.Validate's
// bounds allow (ports <= 2^20, Stages <= 20, Copies <= 255), as
// reqtrace.Hop's are: 72 bytes an event. An event is copied out of its
// emit site's literal and again into every Probe.Emit, and at this size
// the compiler copies it inline; a wider one costs a runtime block copy
// each time (TestEventSize). Emit sites convert what they store;
// consumers widen with int(...) where they read.
type Event struct {
	// Cycle is the network cycle of the observation; -1 for events from
	// untimed models (the functional cache).
	Cycle int64
	Kind  Kind
	Cause StallCause
	Op    msg.Op
	// To is the event's audience: the consumers its emit site found
	// listening (Subs.For), never empty.
	To Subs
	// Aux is never read by the recorder, so that Value stays what its
	// exports print: the queue occupancy in packets for KindStageArrive
	// and the surviving partner's PE for KindCombine (the tracer's), the
	// guest pc for the KindProf kinds (the profiler's).
	Aux int32
	// PE is the originating or stalling processing element; -1 when not
	// applicable.
	PE int32
	// MM is the memory module; -1 when not applicable.
	MM int32
	// Stage is the switch stage (0 = PE side); -1 when not applicable.
	Stage int8
	// Copy is the network copy carrying the request; -1 when not
	// applicable.
	Copy int16
	// ID is the request ID the event concerns; ID2 a second request
	// (combine partner, recreated decombine side). KindProfDeliver, which
	// names no request, carries the returned value and the wait here.
	ID, ID2 uint64
	Addr    msg.Addr
	// Value is kind-dependent: the operand for KindInject, the returned
	// value for KindMNIServe/KindReplyDeliver, the linear address for
	// cache events, KindProfIssue and KindProfDeliver, the ProfState for
	// KindProfCycle.
	Value int64
}

// String formats the event for debugging.
func (e Event) String() string {
	return fmt.Sprintf("ev{c=%d %s pe=%d stage=%d mm=%d id=%d id2=%d %s %s v=%d %s}",
		e.Cycle, e.Kind, e.PE, e.Stage, e.MM, e.ID, e.ID2, e.Op, e.Addr, e.Value, e.Cause)
}

// Probe receives events from the instrumented machine. Implementations
// must not retain the Event beyond the call (it may be reused). Every
// emit site is guarded by a non-zero audience from Subs.For, so with
// nobody listening no event is built.
type Probe interface {
	Emit(Event)
}
