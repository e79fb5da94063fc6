package network

import (
	"testing"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/sim"
)

// runSeededTraffic drives a combining network with a seeded pseudo-random
// workload — every PE injects loads and fetch-and-adds at hot and cold
// addresses — and returns the complete probe event stream plus the final
// word values.
func runSeededTraffic(t *testing.T, seed uint64) ([]obs.Event, map[msg.Addr]int64) {
	t.Helper()
	cfg := Config{K: 2, Stages: 3, Copies: 2, Combining: true}
	h := newHarness(t, cfg)
	rec := obs.NewRecorder(1 << 16)
	h.net.SetProbe(rec)

	rng := sim.NewRand(seed)
	ports := h.net.Ports()
	id := uint64(1)
	for round := 0; round < 64; round++ {
		for p := 0; p < ports; p++ {
			if rng.Bernoulli(0.3) {
				continue // idle this cycle
			}
			var addr msg.Addr
			if rng.Bernoulli(0.5) {
				addr = msg.Addr{MM: 0, Word: 0} // hot spot: exercises combining
			} else {
				addr = msg.Addr{MM: rng.Intn(ports), Word: rng.Intn(16)}
			}
			op := msg.Load
			if rng.Bernoulli(0.5) {
				op = msg.FetchAdd
			}
			h.st.Inject(p, msg.Request{
				ID: id, PE: p, Op: op, Addr: addr, Operand: int64(rng.Intn(8)),
			}, h.cycle)
			id++
		}
		h.step()
	}
	h.drain(t, 50_000)
	return rec.Events(), h.words
}

// TestSeededTrafficDeterminism runs the identical seeded workload twice:
// the probe event streams — every inject, hop, combine and delivery, in
// order — and the final memory contents must match exactly. This is the
// repeatability the detstate analyzer (cmd/ultravet) guards: no map
// iteration order may leak into behavior (the network's cycle path holds
// no map at all: a message carries its own way back).
func TestSeededTrafficDeterminism(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xdecade} {
		ev1, words1 := runSeededTraffic(t, seed)
		ev2, words2 := runSeededTraffic(t, seed)
		if len(ev1) != len(ev2) {
			t.Fatalf("seed %d: %d events vs %d on the rerun", seed, len(ev1), len(ev2))
		}
		for i := range ev1 {
			if ev1[i] != ev2[i] {
				t.Fatalf("seed %d: event %d differs:\n run1 %+v\n run2 %+v",
					seed, i, ev1[i], ev2[i])
			}
		}
		if len(words1) != len(words2) {
			t.Fatalf("seed %d: final memory footprints differ", seed)
		}
		for a, v := range words1 {
			if words2[a] != v {
				t.Fatalf("seed %d: M[%v] = %d vs %d", seed, a, v, words2[a])
			}
		}
		if len(ev1) == 0 {
			t.Fatalf("seed %d: no events recorded — probe not attached?", seed)
		}
	}
}

// TestCombinedRequestEntriesCleaned exercises the owed-reply counts under
// heavy combining: requests whose replies materialize by decombining
// never pass through MMReply, and must still be struck off when the reply
// is collected — after the drain nobody is owed anything.
func TestCombinedRequestEntriesCleaned(t *testing.T) {
	cfg := Config{K: 2, Stages: 3, Combining: true}
	h := newHarness(t, cfg)
	ports := h.net.Ports()
	id := uint64(1)
	hot := msg.Addr{MM: 0, Word: 0}
	for round := 0; round < 32; round++ {
		for p := 0; p < ports; p++ {
			h.st.Inject(p, msg.Request{ID: id, PE: p, Op: msg.FetchAdd, Addr: hot, Operand: 1}, h.cycle)
			id++
		}
		h.step()
	}
	h.drain(t, 50_000)
	if h.net.Stats().Combines.Value() == 0 {
		t.Fatal("hot-spot workload produced no combines")
	}
	for pe, owed := range h.net.outstanding {
		if owed != 0 {
			t.Fatalf("PE %d is still owed %d replies after drain", pe, owed)
		}
	}
}
