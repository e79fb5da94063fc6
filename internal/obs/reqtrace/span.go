package reqtrace

import (
	"encoding/json"
	"fmt"
)

// HopKind identifies one recorded point in a traced request's path
// through the machine.
type HopKind uint8

const (
	// HopInject is the PNI accepting the request into a copy's queue.
	HopInject HopKind = iota
	// HopEnqueue is arrival in a stage's ToMM queue (Q records the
	// queue occupancy in packets after the push).
	HopEnqueue
	// HopDequeue is departure from a ToMM/PNI queue into its link
	// server; the Enqueue→Dequeue gap is that hop's queueing delay.
	HopDequeue
	// HopCombine marks the request pairing with Peer at a switch: for a
	// child span the moment it is absorbed into the wait buffer, for
	// the surviving parent the moment it absorbs the child.
	HopCombine
	// HopDecombine marks the wait-buffer match on the return path that
	// recreates both replies; the Combine→Decombine gap is the child's
	// wait-buffer residency.
	HopDecombine
	// HopMMArrive is delivery of the assembled request to the module's
	// input queue.
	HopMMArrive
	// HopMNIBegin / HopMNIServe bracket the module's service interval.
	HopMNIBegin
	HopMNIServe
	// HopReplyOut is the reply entering the MNI output queue.
	HopReplyOut
	// HopReplyHop is the reply entering a stage's ToPE queue.
	HopReplyHop
	// HopReplyDepart is the reply leaving a ToPE/MNI queue into its
	// link server.
	HopReplyDepart
	// HopDeliver is the PNI handing the assembled reply to the PE —
	// span completion.
	HopDeliver

	numHopKinds
)

var hopNames = [...]string{
	"inject", "enqueue", "dequeue", "combine", "decombine", "mm-arrive",
	"mni-begin", "mni-serve", "reply-out", "reply-hop", "reply-depart",
	"deliver",
}

// String names the hop kind.
func (k HopKind) String() string {
	if int(k) < len(hopNames) {
		return hopNames[k]
	}
	return fmt.Sprintf("HopKind(%d)", uint8(k))
}

// MarshalJSON writes the kind as its name, keeping span dumps readable
// and stable across kind-enum growth.
func (k HopKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a kind name (cmd/tables reads span dumps back).
func (k *HopKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range hopNames {
		if n == s {
			*k = HopKind(i)
			return nil
		}
	}
	return fmt.Errorf("reqtrace: unknown hop kind %q", s)
}

// Hop is one recorded point on a traced request's path. Stage is -1 off
// the switch stages (PNI/MNI ends), MM is -1 off the memory side, Copy
// is -1 where the network copy is not meaningful.
//
// The fields are as narrow as network.Config.Validate's bounds allow
// (Stages <= 20, Copies <= 255, ports <= 2^20), 40 bytes a hop: hops
// are most of what a traced run keeps live. The declaration order is the
// JSON key order, and encoding/json writes a narrow integer as the same
// text and refuses one that overflows on the way in.
type Hop struct {
	Kind  HopKind `json:"kind"`
	Cycle int64   `json:"cycle"`
	Stage int8    `json:"stage"`
	Copy  int16   `json:"copy"`
	MM    int32   `json:"mm"`
	// Q is the ToMM queue occupancy in packets right after an enqueue
	// (zero otherwise).
	Q int32 `json:"q,omitempty"`
	// Peer is the partner span of a combine/decombine hop.
	Peer uint64 `json:"peer,omitempty"`
}

// Span is the complete causal trace of one memory request: its identity,
// per-hop timeline, and combining genealogy. Spans serialize to one
// JSONL line each; field order and content are deterministic, so serial
// and parallel runs of the same seeded workload produce byte-identical
// dumps.
type Span struct {
	// ID is the request's network ID (pe<<32|seq).
	ID uint64 `json:"id"`
	// PE is the issuing processing element.
	PE int `json:"pe"`
	// Op names the operation. For a span adopted mid-flight (an
	// untraced request that combined with a traced partner) the op is
	// learned at MNI service and is the post-combining operation.
	Op string `json:"op"`
	// MM/Word locate the referenced memory word (post-hashing).
	MM   int `json:"mm"`
	Word int `json:"word"`
	// Issued is the cycle the span opened (injection; first observation
	// for adopted spans). Done is the delivery cycle; Latency their
	// difference.
	Issued  int64 `json:"issued"`
	Done    int64 `json:"done"`
	Latency int64 `json:"latency"`
	// Value is the reply's datum.
	Value int64 `json:"value"`
	// Adopted marks a span opened mid-flight by a combine with a traced
	// partner rather than by sampling at issue.
	Adopted bool `json:"adopted,omitempty"`
	// Parent is the span this request combined into (it waited in that
	// switch's wait buffer until Parent's reply returned); zero when
	// the request reached memory itself. Children lists the requests
	// this span absorbed, in combine order. Together they form the
	// combining tree of §3.3.
	Parent   uint64   `json:"parent,omitempty"`
	Children []uint64 `json:"children,omitempty"`
	// WaitCycles is the child's wait-buffer residency
	// (decombine − combine cycles).
	WaitCycles int64 `json:"wait_cycles,omitempty"`
	// Slow marks a span captured by the flight recorder's slow-outlier
	// reservoir.
	Slow bool `json:"slow,omitempty"`
	// Hops is the full per-hop timeline, in event order.
	Hops []Hop `json:"hops"`

	// waitStart is the combine cycle, kept until the decombine hop
	// computes WaitCycles.
	waitStart int64
	// refs counts the tracer's holds on a completed span (flight ring,
	// slow reservoir); the hold that drops it to zero recycles the span.
	refs uint8
}

// Combined reports whether the span participated in a combine on either
// side.
func (s *Span) Combined() bool { return s.Parent != 0 || len(s.Children) > 0 }
