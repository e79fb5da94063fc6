package network

import (
	"testing"

	"ultracomputer/internal/msg"
)

// TestConfigValidate has one row per bound of Bounds, each error in the
// wording a run description (serve.Config) reports it in.
func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		config  Config
		wantErr bool
		errMsg  string
	}{
		{name: "valid", config: Config{K: 2, Stages: 3}},
		{name: "valid, every field set", config: Config{K: 4, Stages: 2, Copies: 255, QueueCapacity: 3, WaitBufferCapacity: 1, PNIQueueCapacity: 3}},
		{name: "valid, 2^20 ports", config: Config{K: 2, Stages: 20}},
		{name: "radix 1", config: Config{K: 1, Stages: 3}, wantErr: true, errMsg: "k: switch radix k = 1, need >= 2"},
		{name: "no stages", config: Config{K: 2, Stages: 0}, wantErr: true, errMsg: "stages: stages = 0, need >= 1"},
		{name: "2^21 ports", config: Config{K: 2, Stages: 21}, wantErr: true, errMsg: "stages: k^stages too large (k=2, stages=21, max 1048576 ports)"},
		{name: "huge radix", config: Config{K: 1 << 31, Stages: 2}, wantErr: true, errMsg: "stages: k^stages too large (k=2147483648, stages=2, max 1048576 ports)"},
		{name: "negative copies", config: Config{K: 2, Stages: 3, Copies: -1}, wantErr: true, errMsg: "copies: copies = -1, need >= 1"},
		{name: "256 copies", config: Config{K: 2, Stages: 3, Copies: 256}, wantErr: true, errMsg: "copies: copies = 256, need <= 255 (a message names its copy in one byte)"},
		{name: "tiny queue", config: Config{K: 2, Stages: 3, QueueCapacity: 2}, wantErr: true, errMsg: "queue_capacity: queue_capacity = 2, need >= 3 (one full message)"},
		{name: "tiny PNI queue", config: Config{K: 2, Stages: 3, PNIQueueCapacity: -1}, wantErr: true, errMsg: "pni_queue_capacity: pni_queue_capacity = -1, need >= 3 (one full message)"},
		{name: "negative wait buffer", config: Config{K: 2, Stages: 3, WaitBufferCapacity: -1}, wantErr: true, errMsg: "wait_buffer_capacity: wait_buffer_capacity = -1, need >= 0"},
		{name: "every failure at once", config: Config{K: 0, Stages: 0, Copies: 256}, wantErr: true,
			errMsg: "k: switch radix k = 0, need >= 2; stages: stages = 0, need >= 1; copies: copies = 256, need <= 255 (a message names its copy in one byte)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.config.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
			if tt.wantErr && err.Error() != "config invalid: "+tt.errMsg {
				t.Errorf("Validate() = %q, want %q", err, "config invalid: "+tt.errMsg)
			}
		})
	}
}

// TestPortsBounded: Ports is K^Stages for a shape Validate accepts and 0
// for any other, however large K or Stages.
func TestPortsBounded(t *testing.T) {
	for _, c := range []struct {
		k, stages, want int
	}{
		{4, 6, 4096}, {2, 20, 1 << 20}, {1 << 20, 1, 1 << 20},
		{2, 21, 0}, {2, 63, 0}, {2, 64, 0}, {1 << 31, 2, 0}, {1<<62 + 1, 1, 0},
		{1, 3, 0}, {0, 3, 0}, {2, 0, 0}, {-2, 3, 0},
	} {
		if got := (Config{K: c.k, Stages: c.stages}).Ports(); got != c.want {
			t.Errorf("Ports(k=%d, stages=%d) = %d, want %d", c.k, c.stages, got, c.want)
		}
	}
}

func TestTopologyDigits(t *testing.T) {
	tp := newTopology(2, 3, 1)
	// x = 0b110 = 6: digits MSB-first are 1, 1, 0.
	for s, want := range []int{1, 1, 0} {
		if got := tp.digit(6, s); got != want {
			t.Errorf("digit(6, %d) = %d, want %d", s, got, want)
		}
	}
	tp4 := newTopology(4, 3, 1)
	// x = 0o123 base 4 = 1*16+2*4+3 = 27: digits 1, 2, 3.
	for s, want := range []int{1, 2, 3} {
		if got := tp4.digit(27, s); got != want {
			t.Errorf("base-4 digit(27, %d) = %d, want %d", s, got, want)
		}
	}
	tp3 := newTopology(3, 4, 1)
	// x = 2*27+0*9+1*3+2 = 59: base-3 digits 2, 0, 1, 2.
	for s, want := range []int{2, 0, 1, 2} {
		if got := tp3.digit(59, s); got != want {
			t.Errorf("base-3 digit(59, %d) = %d, want %d", s, got, want)
		}
	}
}

// TestWiringTablesMatchClosedForms keeps the expressions the tables
// replaced as their reference: the k-shuffle as a left rotation of the
// base-k digits, its inverse, and the routing digit by repeated
// multiplication — per copy, because a network's tables cover all its
// copies and must never wire one into another.
func TestWiringTablesMatchClosedForms(t *testing.T) {
	for _, k := range []int{2, 3, 4, 8} {
		for stages := 1; stages <= 4; stages++ {
			const copies = 3
			tp := newTopology(k, stages, copies)
			if tp.lines != copies*tp.n || len(tp.shuf) != tp.lines || len(tp.unshuf) != tp.lines {
				t.Fatalf("k=%d D=%d: %d lines, tables of %d and %d, want %d", k, stages, tp.lines, len(tp.shuf), len(tp.unshuf), copies*tp.n)
			}
			group := tp.n / k
			for l := 0; l < tp.lines; l++ {
				base, in := l/tp.n*tp.n, l%tp.n
				if got, want := tp.shuffle(l), base+(in%group)*k+in/group; got != want {
					t.Fatalf("k=%d D=%d: shuffle(%d) = %d, want %d", k, stages, l, got, want)
				}
				if got, want := tp.unshuffle(l), base+(in%k)*group+in/k; got != want {
					t.Fatalf("k=%d D=%d: unshuffle(%d) = %d, want %d", k, stages, l, got, want)
				}
			}
			for s := 0; s < stages; s++ {
				div := 1
				for i := 0; i < stages-1-s; i++ {
					div *= k
				}
				for x := 0; x < tp.n; x++ {
					if got, want := tp.digit(x, s), (x/div)%k; got != want {
						t.Fatalf("k=%d D=%d: digit(%d, %d) = %d, want %d", k, stages, x, s, got, want)
					}
				}
			}
		}
	}
}

func TestShuffleInverse(t *testing.T) {
	for _, kd := range [][2]int{{2, 3}, {2, 5}, {3, 2}, {3, 3}, {4, 2}, {4, 3}, {8, 2}} {
		tp := newTopology(kd[0], kd[1], 1)
		seen := make(map[int]bool)
		for l := 0; l < tp.n; l++ {
			s := tp.shuffle(l)
			if s < 0 || s >= tp.n {
				t.Fatalf("k=%d D=%d shuffle(%d) = %d out of range", kd[0], kd[1], l, s)
			}
			if seen[s] {
				t.Fatalf("k=%d D=%d shuffle not a permutation at %d", kd[0], kd[1], l)
			}
			seen[s] = true
			if tp.unshuffle(s) != l {
				t.Fatalf("k=%d D=%d unshuffle(shuffle(%d)) = %d", kd[0], kd[1], l, tp.unshuffle(s))
			}
		}
	}
}

// harness couples a Network, driven by a serial Stepper, to a simple
// one-request-per-cycle memory so tests can drive end-to-end traffic.
// Every step checks the activity-flag invariants (checkActivity).
type harness struct {
	t       testing.TB
	net     *Network
	st      *Stepper
	netStep func(cycle int64)
	words   map[msg.Addr]int64
	pending []*msg.Reply // per-MM reply awaiting MNI space
	served  []int        // per-MM count of memory operations performed
	replies []msg.Reply
	cycle   int64
}

func newHarness(t testing.TB, cfg Config) *harness {
	n := New(cfg)
	return &harness{
		t:       t,
		net:     n,
		st:      NewStepper(n, nil),
		words:   make(map[msg.Addr]int64),
		pending: make([]*msg.Reply, n.Ports()),
		served:  make([]int, n.Ports()),
	}
}

// step advances one cycle: network (netStep when a test sets it, else
// Stepper.Step), then each MM retries its pending reply or serves one new
// request, then every PE collects.
func (h *harness) step() {
	if h.netStep != nil {
		h.netStep(h.cycle)
	} else {
		h.st.Step(h.cycle)
	}
	h.serve()
	for pe := 0; pe < h.net.Ports(); pe++ {
		h.replies = append(h.replies, h.st.Collect(pe, h.cycle)...)
	}
	h.checkActivity()
	h.checkConservation()
	h.checkAliasing()
	h.cycle++
}

// serve is the memory side of one cycle.
func (h *harness) serve() {
	for mm := 0; mm < h.net.Ports(); mm++ {
		if p := h.pending[mm]; p != nil {
			if h.net.MMReply(mm, *p) {
				h.pending[mm] = nil
			}
			continue
		}
		if r, ok := h.st.MMDequeue(mm); ok {
			old := h.words[r.Addr]
			newVal, ret := msg.Apply(r.Op, old, r.Operand)
			h.words[r.Addr] = newVal
			h.served[mm]++
			rep := r.Reply(ret)
			if !h.net.MMReply(mm, rep) {
				h.pending[mm] = &rep
			}
		}
	}
}

// drain steps until the network empties or the cycle limit is hit.
func (h *harness) drain(t *testing.T, limit int64) {
	t.Helper()
	for i := int64(0); i < limit; i++ {
		if h.net.InFlight() == 0 && h.allIdle() {
			return
		}
		h.step()
	}
	t.Fatalf("network failed to drain within %d cycles (inflight=%d)", limit, h.net.InFlight())
}

func (h *harness) allIdle() bool {
	for _, p := range h.pending {
		if p != nil {
			return false
		}
	}
	return true
}

func (h *harness) totalServed() int {
	n := 0
	for _, s := range h.served {
		n += s
	}
	return n
}

// TestRoutingAllPairs checks the unique-path property of the Omega
// network: a load from every PE to every MM arrives and its reply returns
// to the issuing PE, for several (k, D) shapes.
func TestRoutingAllPairs(t *testing.T) {
	for _, kd := range [][2]int{{2, 1}, {2, 3}, {3, 2}, {3, 3}, {4, 2}, {8, 1}} {
		cfg := Config{K: kd[0], Stages: kd[1], Combining: true}
		n := cfg.Ports()
		for p := 0; p < n; p++ {
			for m := 0; m < n; m++ {
				h := newHarness(t, cfg)
				addr := msg.Addr{MM: m, Word: 5}
				h.words[addr] = int64(100*p + m)
				req := msg.Request{ID: 1, PE: p, Op: msg.Load, Addr: addr}
				if !h.st.Inject(p, req, 0) {
					t.Fatalf("k=%d D=%d: inject refused", kd[0], kd[1])
				}
				h.drain(t, 200)
				if len(h.replies) != 1 {
					t.Fatalf("k=%d D=%d p=%d m=%d: %d replies", kd[0], kd[1], p, m, len(h.replies))
				}
				rep := h.replies[0]
				if rep.PE != p || rep.Value != int64(100*p+m) {
					t.Fatalf("k=%d D=%d: reply %+v, want PE %d value %d", kd[0], kd[1], rep, p, 100*p+m)
				}
			}
		}
	}
}

// TestUnloadedLatency pins down the timing model: a 1-packet load through
// a D-stage empty network reaches the MM after D+pk cycles of forward
// transit (header 1 cycle/stage plus full assembly at the MNI).
func TestUnloadedLatency(t *testing.T) {
	cfg := Config{K: 2, Stages: 3, Combining: true}
	h := newHarness(t, cfg)
	req := msg.Request{ID: 1, PE: 0, Op: msg.Load, Addr: msg.Addr{MM: 0, Word: 0}}
	h.st.Inject(0, req, 0)
	for i := 0; i < 100 && len(h.replies) == 0; i++ {
		h.step()
	}
	if len(h.replies) != 1 {
		t.Fatal("no reply")
	}
	rt := h.net.Stats().RoundTrip.Value()
	// Forward: D+1 header hops + (pk-1)=0 assembly; MM service 1; reverse
	// similar with a 3-packet reply. The exact constant matters less than
	// it being O(D) and stable; lock it in to catch regressions.
	if rt < 8 || rt > 16 {
		t.Fatalf("unloaded round trip = %v cycles, want within [8,16]", rt)
	}
}

// TestHotSpotCombining is the paper's key claim (§3.1.2): any number of
// concurrent references to the same location can be satisfied in the time
// of one, because switches combine. All PEs fetch-and-add the same word;
// every reply must be a distinct intermediate value and memory must see
// far fewer than N requests.
func TestHotSpotCombining(t *testing.T) {
	cfg := Config{K: 2, Stages: 4, Combining: true} // N = 16
	h := newHarness(t, cfg)
	n := h.net.Ports()
	addr := msg.Addr{MM: 3, Word: 7}
	for p := 0; p < n; p++ {
		req := msg.Request{ID: uint64(p + 1), PE: p, Op: msg.FetchAdd, Addr: addr, Operand: 1}
		if !h.st.Inject(p, req, 0) {
			t.Fatalf("inject refused at PE %d", p)
		}
	}
	h.drain(t, 5000)
	if len(h.replies) != n {
		t.Fatalf("%d replies, want %d", len(h.replies), n)
	}
	seen := make(map[int64]bool)
	for _, r := range h.replies {
		if r.Value < 0 || r.Value >= int64(n) {
			t.Fatalf("reply value %d out of [0,%d)", r.Value, n)
		}
		if seen[r.Value] {
			t.Fatalf("duplicate intermediate value %d", r.Value)
		}
		seen[r.Value] = true
	}
	if h.words[addr] != int64(n) {
		t.Fatalf("memory = %d, want %d", h.words[addr], n)
	}
	if got := h.net.Stats().Combines.Value(); got == 0 {
		t.Fatal("no combines recorded on a pure hot spot")
	}
	if h.totalServed() >= n {
		t.Fatalf("memory served %d ops for %d combined requests", h.totalServed(), n)
	}
}

// TestHotSpotWithoutCombining checks the baseline: with combining off the
// memory module must serve every request individually.
func TestHotSpotWithoutCombining(t *testing.T) {
	cfg := Config{K: 2, Stages: 4, Combining: false}
	h := newHarness(t, cfg)
	n := h.net.Ports()
	addr := msg.Addr{MM: 3, Word: 7}
	injected := 0
	for p := 0; p < n; p++ {
		req := msg.Request{ID: uint64(p + 1), PE: p, Op: msg.FetchAdd, Addr: addr, Operand: 1}
		if h.st.Inject(p, req, 0) {
			injected++
		}
	}
	h.drain(t, 5000)
	if h.totalServed() != injected {
		t.Fatalf("memory served %d ops, want %d (no combining)", h.totalServed(), injected)
	}
	if got := h.net.Stats().Combines.Value(); got != 0 {
		t.Fatalf("%d combines with combining disabled", got)
	}
	if h.words[addr] != int64(injected) {
		t.Fatalf("memory = %d, want %d", h.words[addr], injected)
	}
}

// TestMixedOpsSameCell drives concurrent loads, stores and fetch-and-adds
// at one cell and checks the serialization principle's weak guarantee:
// the final value is explainable and every load/F&A reply is a value the
// cell could have held.
func TestMixedOpsSameCell(t *testing.T) {
	cfg := Config{K: 2, Stages: 3, Combining: true}
	h := newHarness(t, cfg)
	addr := msg.Addr{MM: 1, Word: 0}
	// PEs 0..3 add 1; PEs 4..5 store 100; PEs 6..7 load.
	for p := 0; p < 8; p++ {
		var req msg.Request
		switch {
		case p < 4:
			req = msg.Request{ID: uint64(p + 1), PE: p, Op: msg.FetchAdd, Addr: addr, Operand: 1}
		case p < 6:
			req = msg.Request{ID: uint64(p + 1), PE: p, Op: msg.Store, Addr: addr, Operand: 100}
		default:
			req = msg.Request{ID: uint64(p + 1), PE: p, Op: msg.Load, Addr: addr}
		}
		if !h.st.Inject(p, req, 0) {
			t.Fatalf("inject refused at PE %d", p)
		}
	}
	h.drain(t, 5000)
	if len(h.replies) != 8 {
		t.Fatalf("%d replies, want 8", len(h.replies))
	}
	final := h.words[addr]
	// The stores wrote 100; depending on the serial order 0..4 adds land
	// after the last store.
	if final < 100 || final > 104 {
		t.Fatalf("final value %d not in [100,104]", final)
	}
}

// TestCopiesSpreadLoad checks that a duplexed network (d = 2) still
// returns every reply to its issuer and uses both copies.
func TestCopiesSpreadLoad(t *testing.T) {
	cfg := Config{K: 2, Stages: 3, Copies: 2, Combining: true}
	h := newHarness(t, cfg)
	n := h.net.Ports()
	id := uint64(1)
	for round := 0; round < 4; round++ {
		for p := 0; p < n; p++ {
			addr := msg.Addr{MM: (p + round) % n, Word: round}
			h.st.Inject(p, msg.Request{ID: id, PE: p, Op: msg.FetchAdd, Addr: addr, Operand: 1}, h.cycle)
			id++
		}
		h.step()
	}
	h.drain(t, 5000)
	if got := int(h.net.Stats().RepliesDelivered.Value()); got != 4*n {
		t.Fatalf("replies = %d, want %d", got, 4*n)
	}
}

// TestCopiesRoundRobin confirms consecutive injections from one PE use
// alternating copies, and that each request is stamped with the copy that
// carries it and the cycle it entered.
func TestCopiesRoundRobin(t *testing.T) {
	net := New(Config{K: 2, Stages: 2, Copies: 2})
	st := NewStepper(net, nil)
	st.Inject(0, msg.Request{ID: 1, PE: 0, Op: msg.Load, Addr: msg.Addr{MM: 1}}, 7)
	st.Inject(0, msg.Request{ID: 2, PE: 0, Op: msg.Load, Addr: msg.Addr{MM: 2}}, 8)
	for ci, want := range []msg.Request{
		{ID: 1, PE: 0, Op: msg.Load, Copy: 0, Addr: msg.Addr{MM: 1}, Issued: 7},
		{ID: 2, PE: 0, Op: msg.Load, Copy: 1, Addr: msg.Addr{MM: 2}, Issued: 8},
	} {
		q := &net.fwd[net.fwdAt(-1, ci*net.Ports())].q // PE 0's PNI queue in copy ci
		if q.len() != 1 || q.entries[q.head].req != want {
			t.Fatalf("copy %d's PNI queue holds %+v, want only %+v", ci, q.entries[q.head:], want)
		}
	}
}

// TestBackpressureNoLoss floods a tiny network far beyond queue capacity;
// every accepted request must still produce exactly one reply.
func TestBackpressureNoLoss(t *testing.T) {
	cfg := Config{K: 2, Stages: 2, QueueCapacity: 4, PNIQueueCapacity: 4, Combining: true}
	h := newHarness(t, cfg)
	n := h.net.Ports()
	accepted := 0
	id := uint64(1)
	for round := 0; round < 200; round++ {
		for p := 0; p < n; p++ {
			// All traffic to MM 0 to maximize contention.
			req := msg.Request{ID: id, PE: p, Op: msg.FetchAdd, Addr: msg.Addr{MM: 0, Word: p % 2}, Operand: 1}
			if h.st.Inject(p, req, h.cycle) {
				accepted++
				id++
			}
		}
		h.step()
	}
	h.drain(t, 20000)
	if got := int(h.net.Stats().RepliesDelivered.Value()); got != accepted {
		t.Fatalf("replies = %d, want %d accepted", got, accepted)
	}
	sum := h.words[msg.Addr{MM: 0, Word: 0}] + h.words[msg.Addr{MM: 0, Word: 1}]
	if sum != int64(accepted) {
		t.Fatalf("total increment = %d, want %d", sum, accepted)
	}
}

// TestInjectRefusalWhenFull fills one PNI queue and checks Inject refuses
// further requests rather than dropping them.
func TestInjectRefusalWhenFull(t *testing.T) {
	cfg := Config{K: 2, Stages: 2, PNIQueueCapacity: 3, Combining: false}
	st := NewStepper(New(cfg), nil)
	// 3-packet stores: only one fits in a 3-packet PNI queue.
	r1 := msg.Request{ID: 1, PE: 0, Op: msg.Store, Addr: msg.Addr{MM: 0}, Operand: 1}
	r2 := msg.Request{ID: 2, PE: 0, Op: msg.Store, Addr: msg.Addr{MM: 1}, Operand: 2}
	if !st.Inject(0, r1, 0) {
		t.Fatal("first inject refused")
	}
	if st.Inject(0, r2, 0) {
		t.Fatal("second inject accepted into a full PNI queue")
	}
}

// TestFetchAddConservation issues random fetch-and-adds at random
// addresses and checks the combining network conserves the total
// increment per cell and returns one reply per request.
func TestFetchAddConservation(t *testing.T) {
	cfg := Config{K: 4, Stages: 2, Combining: true} // N = 16
	h := newHarness(t, cfg)
	n := h.net.Ports()
	want := make(map[msg.Addr]int64)
	id := uint64(1)
	accepted := 0
	for round := 0; round < 50; round++ {
		for p := 0; p < n; p++ {
			addr := msg.Addr{MM: (p * 7 % 4), Word: round % 3}
			inc := int64(p + round)
			req := msg.Request{ID: id, PE: p, Op: msg.FetchAdd, Addr: addr, Operand: inc}
			if h.st.Inject(p, req, h.cycle) {
				want[addr] += inc
				accepted++
				id++
			}
		}
		h.step()
	}
	h.drain(t, 50000)
	for addr, sum := range want {
		if h.words[addr] != sum {
			t.Errorf("cell %v = %d, want %d", addr, h.words[addr], sum)
		}
	}
	if got := int(h.net.Stats().RepliesDelivered.Value()); got != accepted {
		t.Fatalf("replies = %d, want %d", got, accepted)
	}
	if h.net.Stats().Combines.Value() != h.net.Stats().Decombines.Value() {
		t.Fatalf("combines %d != decombines %d",
			h.net.Stats().Combines.Value(), h.net.Stats().Decombines.Value())
	}
}

// TestMMReplyUnknownIDPanics: a reply the network cannot route, or that
// nobody is owed, is a driver bug, and the panic names the argument that
// is wrong. (Matching a reply to its request by ID is the PNI's job —
// pe.PE.Deliver panics on one that "matches no outstanding request"; the
// network routes by what the reply carries and counts what each PE is
// owed.)
func TestMMReplyUnknownIDPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		mm   int
		rep  msg.Reply
		want string
	}{
		{"PE with nothing outstanding", 0, msg.Reply{ID: 999, PE: 1}, "network: MMReply at MM 0 of reply to PE 1, which has nothing outstanding"},
		{"copy out of range", 0, msg.Reply{ID: 1, Copy: 1}, "network: MMReply at MM 0 of reply through copy 1 of 1"},
		{"module out of range", 2, msg.Reply{ID: 1}, "network: MMReply at MM 2 of 2"},
		{"PE out of range", 1, msg.Reply{ID: 1, PE: -1}, "network: MMReply at MM 1 of reply to PE -1 of 2"},
	} {
		func() {
			net := New(Config{K: 2, Stages: 1})
			NewStepper(net, nil).Inject(0, msg.Request{ID: 1, Op: msg.Load}, 0)
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("%s: MMReply panicked with %v, want %q", c.name, got, c.want)
				}
			}()
			net.MMReply(c.mm, c.rep)
		}()
	}
}

// TestCollectUnowedReplyPanics: the count of what a PE is owed may not go
// negative — a second reply to its only request is caught when collected.
func TestCollectUnowedReplyPanics(t *testing.T) {
	h := newHarness(t, Config{K: 2, Stages: 1})
	h.st.Inject(0, msg.Request{ID: 1, Op: msg.Load}, 0)
	rep := (&msg.Request{ID: 1, Op: msg.Load}).Reply(0)
	if !h.net.MMReply(0, rep) || !h.net.MMReply(0, rep) {
		t.Fatal("MNI queue refused a reply")
	}
	defer func() {
		const want = "network: Collect at PE 0 of reply 1 with nothing outstanding"
		if got := recover(); got != want {
			t.Errorf("Collect panicked with %v, want %q", got, want)
		}
	}()
	for i := 0; i < 20; i++ {
		h.st.Step(h.cycle)
		h.st.Collect(0, h.cycle)
		h.cycle++
	}
	t.Error("the network delivered two replies to one request")
}
