package network

import (
	"testing"

	"ultracomputer/internal/msg"
)

// TestFailCopyDrainsAndReroutes: with a duplexed network, failing one
// copy mid-run loses nothing — in-flight traffic drains and new traffic
// reroutes through the survivor (the §4.1 reliability argument for
// network copies).
func TestFailCopyDrainsAndReroutes(t *testing.T) {
	cfg := Config{K: 2, Stages: 3, Copies: 2, Combining: true}
	h := newHarness(t, cfg)
	n := h.net.Ports()
	var id uint64 = 1
	accepted := 0
	inject := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for p := 0; p < n; p++ {
				req := msg.Request{ID: id, PE: p, Op: msg.FetchAdd,
					Addr: msg.Addr{MM: int(id) % n, Word: int(id) % 5}, Operand: 1}
				if h.st.Inject(p, req, h.cycle) {
					accepted++
					id++
				}
			}
			h.step()
		}
	}
	inject(5)
	h.net.FailCopy(0)
	if h.net.AliveCopies() != 1 {
		t.Fatalf("alive copies = %d, want 1", h.net.AliveCopies())
	}
	inject(5)
	h.drain(t, 50_000)
	if got := int(h.net.Stats().RepliesDelivered.Value()); got != accepted {
		t.Fatalf("replies = %d, want %d (traffic lost across failure)", got, accepted)
	}
}

// TestAllCopiesFailedRefusesTraffic: a fully failed network accepts
// nothing rather than losing requests.
func TestAllCopiesFailedRefusesTraffic(t *testing.T) {
	net := New(Config{K: 2, Stages: 2, Copies: 2})
	net.FailCopy(0)
	net.FailCopy(1)
	if NewStepper(net, nil).Inject(0, msg.Request{ID: 1, PE: 0, Op: msg.Load, Addr: msg.Addr{MM: 1}}, 0) {
		t.Fatal("dead network accepted a request")
	}
}

// TestCombinesSpreadAcrossStages: a saturating hot spot builds its
// combining tree through multiple stages, not just at the memory side.
func TestCombinesSpreadAcrossStages(t *testing.T) {
	cfg := Config{K: 2, Stages: 4, Combining: true}
	h := newHarness(t, cfg)
	n := h.net.Ports()
	var id uint64 = 1
	for round := 0; round < 40; round++ {
		for p := 0; p < n; p++ {
			req := msg.Request{ID: id, PE: p, Op: msg.FetchAdd,
				Addr: msg.Addr{MM: 0, Word: 0}, Operand: 1}
			if h.st.Inject(p, req, h.cycle) {
				id++
			}
		}
		h.step()
	}
	h.drain(t, 100_000)
	per := h.net.Stats().CombinesPerStage()
	if len(per) == 0 {
		t.Fatal("no per-stage combine data")
	}
	stagesWith := 0
	for _, c := range per {
		if c > 0 {
			stagesWith++
		}
	}
	if stagesWith < 2 {
		t.Fatalf("combining confined to %d stage(s): %v", stagesWith, per)
	}
}
