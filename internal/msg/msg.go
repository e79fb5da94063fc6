// Package msg defines the memory-request and reply messages that travel
// through the Ultracomputer's combining Omega network, together with the
// fetch-and-phi algebra that makes requests combinable.
//
// The paper's §2.2–2.4 define fetch-and-add and its generalization
// fetch-and-phi for any associative phi; §3.1.2–3.1.3 define how two
// requests directed at the same memory location combine inside a switch.
// This package centralizes those semantics so the network, the memory
// modules and the idealized paracomputer runtime all agree exactly.
package msg

import "fmt"

// Op identifies a memory operation. Every Op is a fetch-and-phi for some
// phi (§2.4): Load is fetch-and-phi with the projection pi1 (expressed
// here, following the paper, as FetchAdd with increment 0), Store is the
// projection pi2, Swap is pi2 with the old value returned, TestAndSet is
// fetch-and-or with TRUE.
type Op uint8

const (
	// Load reads a word of central memory.
	Load Op = iota
	// Store writes a word of central memory.
	Store
	// FetchAdd atomically returns the old value and adds the operand.
	FetchAdd
	// FetchAnd atomically returns the old value and ANDs the operand.
	FetchAnd
	// FetchOr atomically returns the old value and ORs the operand.
	FetchOr
	// FetchMax atomically returns the old value and stores the maximum
	// of it and the operand.
	FetchMax
	// FetchMin atomically returns the old value and stores the minimum
	// of it and the operand.
	FetchMin
	// Swap atomically returns the old value and stores the operand
	// (fetch-and-pi2).
	Swap

	numOps
)

var opNames = [...]string{"Load", "Store", "FetchAdd", "FetchAnd", "FetchOr", "FetchMax", "FetchMin", "Swap"}

// String names the operation.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	//ultravet:ok hotalloc invalid-op fallback; every valid op returns a constant name above
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Valid reports whether o is a defined operation.
func (o Op) Valid() bool { return o < numOps }

// ReturnsValue reports whether the PE waits for a data word in the reply.
// Stores are acknowledged but carry no datum back.
func (o Op) ReturnsValue() bool { return o != Store }

// Addr locates a word of central memory: the module (after hashing) and
// the word offset within the module. Routing through the Omega network is
// determined solely by the MM bits, one radix-k digit per stage.
type Addr struct {
	MM   int // memory module number, 0..N-1
	Word int // word offset within the module
}

// String formats the address as MM:Word.
func (a Addr) String() string { return fmt.Sprintf("%d:%d", a.MM, a.Word) }

// Packet sizes, following §4.2: a message carrying a data word is modeled
// as three packets, one without data as a single packet.
const (
	PacketsWithData    = 3
	PacketsWithoutData = 1
)

// TraceCtx is the compact causal-tracing context a sampled request
// carries from PE issue through every switch stage to the memory module
// and back (internal/obs/reqtrace). A zero context marks an untraced
// request, so every hop-record site pays one compare when tracing is off.
// Sampled marks a traced carrier, whose span is named by the carrier's
// own ID (a request adopted mid-flight, when a traced partner combines
// into it, is traced under its own ID too), and Hops counts the forward
// hops recorded so far — the hop-vector length, used by the span
// assembler as a path-depth cross-check.
//
// The context is modeled as out-of-band metadata (the hardware would
// widen the D-bit amalgam by a few tag bits); it does not contribute to
// Packets. Its two bytes ride in the padding after a message's Op and
// Copy.
type TraceCtx struct {
	Sampled bool
	Hops    uint8
}

// Traced reports whether the carrier is a sampled request.
func (t TraceCtx) Traced() bool { return t.Sampled }

// Request is a PE-to-MM message. The paper transmits only a D-bit amalgam
// of origin and destination (each stage-j switch overwrites destination
// bit m_j with origin bit p_j, §3.1.1), so a message is its own return
// route and no switch or interface keeps a table per request; we carry
// both PE and Addr explicitly and account for the amalgam when sizing
// packets. Copy and Issued are the rest of what the way back needs: the
// network stamps both when it accepts the request, and the reply owed to
// it (see Reply) carries them home.
type Request struct {
	ID   uint64 // unique tag assigned by the issuing PNI
	PE   int    // originating processing element
	Op   Op
	Copy uint8 // network copy carrying the request; its reply returns there
	// TC is the causal-tracing context; zero for untraced requests.
	TC      TraceCtx
	Addr    Addr
	Operand int64 // store datum or fetch-and-phi operand
	Issued  int64 // network cycle of injection (round-trip latency)
}

// Packets reports the request's length in network packets.
func (r *Request) Packets() int {
	if r.Op == Load {
		return PacketsWithoutData
	}
	return PacketsWithData
}

// String formats the request for debugging.
func (r Request) String() string {
	return fmt.Sprintf("req{%d pe%d %s %s %d}", r.ID, r.PE, r.Op, r.Addr, r.Operand)
}

// Reply is an MM-to-PE message answering one Request. Build it with
// Request.Reply: a reply that drops Copy returns through copy 0 whichever
// copy carried its request.
type Reply struct {
	ID   uint64
	PE   int
	Op   Op
	Copy uint8 // the request's: the copy the reply returns through
	// TC is the causal-tracing context carried back from the request;
	// replies synthesized by decombining carry the side's own context.
	TC     TraceCtx
	Addr   Addr
	Value  int64 // the fetched (old) value; undefined for Store
	Issued int64 // the request's: network cycle of injection
}

// Reply builds the reply owed to r, carrying value and everything of the
// request that rides back with it.
func (r *Request) Reply(value int64) Reply {
	return Reply{ID: r.ID, PE: r.PE, Op: r.Op, Copy: r.Copy, Addr: r.Addr, Value: value, Issued: r.Issued, TC: r.TC}
}

// Packets reports the reply's length in network packets. Store
// acknowledgements carry no data.
func (r *Reply) Packets() int {
	if r.Op == Store {
		return PacketsWithoutData
	}
	return PacketsWithData
}

// String formats the reply for debugging.
func (r Reply) String() string {
	return fmt.Sprintf("rep{%d pe%d %s %s = %d}", r.ID, r.PE, r.Op, r.Addr, r.Value)
}

// Apply executes op on a memory cell holding old with the given operand,
// returning the cell's new contents and the value returned to the
// requester (the old contents for every fetch operation). This is the
// MNI's ALU (§3.1.3).
func Apply(op Op, old, operand int64) (newVal, ret int64) {
	switch op {
	case Load:
		return old, old
	case Store:
		return operand, 0
	case FetchAdd:
		return old + operand, old
	case FetchAnd:
		return old & operand, old
	case FetchOr:
		return old | operand, old
	case FetchMax:
		if operand > old {
			return operand, old
		}
		return old, old
	case FetchMin:
		if operand < old {
			return operand, old
		}
		return old, old
	case Swap:
		return operand, old
	default:
		panic(fmt.Sprintf("msg: Apply on invalid op %v", op))
	}
}
