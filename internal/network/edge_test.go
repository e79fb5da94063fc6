package network

import (
	"testing"

	"ultracomputer/internal/msg"
)

// TestWaitBufferFullDisablesCombining: with a 1-entry wait buffer, a
// third request to the same address cannot combine (the queued entry is
// already paired) and a second pair cannot form until the buffer drains
// — yet everything still completes correctly.
func TestWaitBufferFullDisablesCombining(t *testing.T) {
	cfg := Config{K: 2, Stages: 2, Combining: true, WaitBufferCapacity: 1}
	h := newHarness(t, cfg)
	n := h.net.Ports()
	addr := msg.Addr{MM: 0, Word: 0}
	for p := 0; p < n; p++ {
		req := msg.Request{ID: uint64(p + 1), PE: p, Op: msg.FetchAdd, Addr: addr, Operand: 1}
		if !h.st.Inject(p, req, 0) {
			t.Fatalf("inject refused at PE %d", p)
		}
	}
	h.drain(t, 50_000)
	if h.words[addr] != int64(n) {
		t.Fatalf("total = %d, want %d", h.words[addr], n)
	}
	if got := int(h.net.Stats().RepliesDelivered.Value()); got != n {
		t.Fatalf("replies = %d, want %d", got, n)
	}
	// Combining still possible (pairs), but bounded by buffer capacity:
	// never more than one outstanding pair per ToMM queue at a time.
	if h.net.Stats().Combines.Value() == 0 {
		t.Fatal("tiny wait buffer eliminated all combining")
	}
}

// TestSingleStageNetwork exercises the degenerate D=1 machine (k PEs,
// one switch column).
func TestSingleStageNetwork(t *testing.T) {
	cfg := Config{K: 4, Stages: 1, Combining: true}
	h := newHarness(t, cfg)
	for p := 0; p < 4; p++ {
		req := msg.Request{ID: uint64(p + 1), PE: p, Op: msg.FetchAdd,
			Addr: msg.Addr{MM: (p + 1) % 4, Word: 0}, Operand: int64(p)}
		if !h.st.Inject(p, req, 0) {
			t.Fatalf("inject refused at PE %d", p)
		}
	}
	h.drain(t, 5000)
	for p := 0; p < 4; p++ {
		if got := h.words[msg.Addr{MM: (p + 1) % 4, Word: 0}]; got != int64(p) {
			t.Fatalf("cell %d = %d, want %d", (p+1)%4, got, p)
		}
	}
}

// TestLargeNetworkSoak runs a 4096-port network — the paper's full
// machine size — for a short window, checking stability at scale.
func TestLargeNetworkSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-port soak")
	}
	cfg := Config{K: 4, Stages: 6, Combining: true} // 4096 ports
	h := newHarness(t, cfg)
	n := h.net.Ports()
	if n != 4096 {
		t.Fatalf("ports = %d", n)
	}
	var id uint64 = 1
	accepted := 0
	// Light uniform load for a few hundred cycles.
	for round := 0; round < 30; round++ {
		for p := 0; p < n; p += 7 { // sparse injectors keep runtime modest
			req := msg.Request{ID: id, PE: p, Op: msg.FetchAdd,
				Addr: msg.Addr{MM: int(id*2654435761) % n, Word: int(id % 13)}, Operand: 1}
			if h.st.Inject(p, req, h.cycle) {
				accepted++
				id++
			}
		}
		h.step()
	}
	h.drain(t, 20_000)
	if got := int(h.net.Stats().RepliesDelivered.Value()); got != accepted {
		t.Fatalf("replies = %d, want %d", got, accepted)
	}
	if rt := h.net.Stats().RoundTrip.Value(); rt < 12 || rt > 60 {
		t.Fatalf("round trip %.1f cycles implausible for a 6-stage machine", rt)
	}
}
