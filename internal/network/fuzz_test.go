package network

import (
	"testing"
	"testing/quick"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/sim"
)

// TestSystolicMatchesAbstractQueue drives the cycle-accurate systolic
// queue (§3.3.1) and checks it implements the same abstract contract the
// switch's reqQueue relies on: items exit exactly once, in FIFO order
// among non-combined items, and every exiting pair is combinable and
// address-matched.
func TestSystolicMatchesAbstractQueue(t *testing.T) {
	f := func(opsRaw []uint16, seed uint64) bool {
		s := NewSystolicQueue(8)
		rng := sim.NewRand(seed)
		var nextID uint64 = 1
		inserted := map[uint64]msg.Request{}
		exited := map[uint64]bool{}
		var exitOrder []uint64

		step := func(in *msg.Request, canExit bool) {
			out, didExit, accepted := s.Step(in, canExit)
			if in != nil && accepted {
				inserted[in.ID] = *in
			}
			if !didExit {
				return
			}
			a := StripMark(out.Req)
			if _, ok := inserted[a.ID]; !ok {
				t.Fatalf("exited unknown item %d", a.ID)
			}
			if exited[a.ID] {
				t.Fatalf("item %d exited twice", a.ID)
			}
			exited[a.ID] = true
			exitOrder = append(exitOrder, a.ID)
			if out.Pair {
				b := out.Partner
				if exited[b.ID] {
					t.Fatalf("partner %d exited twice", b.ID)
				}
				exited[b.ID] = true
				if b.Addr != a.Addr {
					t.Fatalf("pair with mismatched addresses %v / %v", a.Addr, b.Addr)
				}
				if !msg.Combinable(a.Op, b.Op) {
					t.Fatalf("pair %v/%v not combinable", a.Op, b.Op)
				}
			}
		}

		for _, raw := range opsRaw {
			if raw%3 == 0 || s.Full() {
				step(nil, rng.Bernoulli(0.7))
				continue
			}
			op := msg.Load
			if raw%2 == 0 {
				op = msg.FetchAdd
			}
			r := msg.Request{
				ID:   nextID,
				PE:   int(raw % 7),
				Op:   op,
				Addr: msg.Addr{MM: int(raw % 3), Word: int(raw / 64 % 4)},
			}
			nextID++
			step(&r, rng.Bernoulli(0.7))
		}
		// Drain completely.
		for i := 0; i < 200 && s.Len() > 0; i++ {
			step(nil, true)
		}
		if s.Len() != 0 {
			t.Fatal("queue failed to drain")
		}
		if len(exited) != len(inserted) {
			t.Fatalf("exited %d of %d inserted", len(exited), len(inserted))
		}
		// FIFO among lead (non-partner) exits: their IDs must ascend
		// within each... lead items exit in global insertion order of
		// leads since the right column is age-ordered.
		for i := 1; i < len(exitOrder); i++ {
			if exitOrder[i] < exitOrder[i-1] {
				// A lead with a smaller ID exited later — allowed only
				// if an intervening item was absorbed as a partner; lead
				// exits themselves must ascend.
				t.Fatalf("lead exits out of order: %v", exitOrder)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNetworkFuzzConservation throws randomized fetch-and-add traffic
// with random queue shapes at the network and checks global invariants:
// exactly one reply per accepted request, per-cell totals conserved, and
// full drain.
func TestNetworkFuzzConservation(t *testing.T) {
	f := func(seed uint64, kRaw, stagesRaw, capRaw, wbRaw uint8, combining bool) bool {
		k := 2 + int(kRaw%3)           // 2..4
		stages := 1 + int(stagesRaw%3) // 1..3
		capacity := 3 + int(capRaw%13) // 3..15
		wb := 1 + int(wbRaw%8)
		cfg := Config{
			K: k, Stages: stages, Combining: combining,
			QueueCapacity: capacity, PNIQueueCapacity: capacity,
			WaitBufferCapacity: wb,
		}
		h := newHarness(t, cfg)
		n := h.net.Ports()
		rng := sim.NewRand(seed)
		want := make(map[msg.Addr]int64)
		var id uint64 = 1
		accepted := 0
		for round := 0; round < 40; round++ {
			for p := 0; p < n; p++ {
				if !rng.Bernoulli(0.4) {
					continue
				}
				addr := msg.Addr{MM: rng.Intn(n), Word: rng.Intn(3)}
				inc := int64(rng.Intn(9) - 4)
				req := msg.Request{ID: id, PE: p, Op: msg.FetchAdd, Addr: addr, Operand: inc}
				if h.st.Inject(p, req, h.cycle) {
					want[addr] += inc
					accepted++
					id++
				}
			}
			h.step()
		}
		h.drain(t, 200_000)
		if got := int(h.net.Stats().RepliesDelivered.Value()); got != accepted {
			t.Logf("cfg %+v: replies %d != accepted %d", cfg, got, accepted)
			return false
		}
		for addr, sum := range want {
			if h.words[addr] != sum {
				t.Logf("cfg %+v: cell %v = %d, want %d", cfg, addr, h.words[addr], sum)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
