package network

import (
	"testing"

	"ultracomputer/internal/msg"
)

func TestUnbufferedNoConflictAllGranted(t *testing.T) {
	u := NewUnbuffered(2, 3, 1)
	reqs := make([]*msg.Request, u.Ports())
	for p := range reqs {
		// Identity permutation routes conflict-free through an Omega
		// network? Not in general — use distinct destinations equal to
		// sources, which IS conflict-free (every stage's groups are
		// singletons for the identity).
		reqs[p] = &msg.Request{PE: p, Op: msg.Load, Addr: msg.Addr{MM: p}}
	}
	granted := u.Arbitrate(reqs)
	for p, ok := range granted {
		if !ok {
			t.Fatalf("identity permutation: PE %d killed", p)
		}
	}
}

func TestUnbufferedHotSpotOneWinner(t *testing.T) {
	u := NewUnbuffered(2, 4, 2)
	reqs := make([]*msg.Request, u.Ports())
	for p := range reqs {
		reqs[p] = &msg.Request{PE: p, Op: msg.FetchAdd, Addr: msg.Addr{MM: 5, Word: 1}}
	}
	granted := u.Arbitrate(reqs)
	wins := 0
	for _, ok := range granted {
		if ok {
			wins++
		}
	}
	if wins != 1 {
		t.Fatalf("hot spot admitted %d winners, want exactly 1", wins)
	}
}

func TestUnbufferedIdlePEs(t *testing.T) {
	u := NewUnbuffered(2, 2, 3)
	reqs := make([]*msg.Request, u.Ports())
	reqs[1] = &msg.Request{PE: 1, Op: msg.Load, Addr: msg.Addr{MM: 2}}
	granted := u.Arbitrate(reqs)
	for p, ok := range granted {
		if p == 1 && !ok {
			t.Fatal("lone request killed")
		}
		if p != 1 && ok {
			t.Fatalf("idle PE %d granted", p)
		}
	}
}

// TestUnbufferedBandwidthDecaysWithStages is the paper's O(N/log N)
// claim: per-PE accepted throughput under saturating uniform traffic
// falls as the network grows, while the queued message-switched network
// keeps per-PE throughput roughly flat (bandwidth linear in N).
func TestUnbufferedBandwidthDecaysWithStages(t *testing.T) {
	small := NewUnbuffered(2, 3, 7).Throughput(1.0, 400) // 8 ports
	large := NewUnbuffered(2, 7, 7).Throughput(1.0, 400) // 128 ports
	if large >= small {
		t.Fatalf("per-PE throughput grew with size: %0.3f (8) vs %0.3f (128)", small, large)
	}
	if large > 0.75*small {
		t.Fatalf("decay too weak: %0.3f vs %0.3f", large, small)
	}
	// Sanity: it still delivers something.
	if large < 0.05 {
		t.Fatalf("throughput collapsed: %v", large)
	}
}

// TestQueuedBeatsUnbufferedAtScale cross-checks the ablation the
// benchmarks report: at saturating uniform load, the queued network
// sustains much higher per-PE throughput than kill-on-conflict at the
// same size.
func TestQueuedBeatsUnbufferedAtScale(t *testing.T) {
	// Queued network: measure served/cycle/PE via the test harness.
	cfg := Config{K: 2, Stages: 5, Combining: false}
	h := newHarness(t, cfg)
	n := h.net.Ports()
	var id uint64 = 1
	served0 := int64(0)
	warm, meas := int64(500), int64(3000)
	for cycle := int64(0); cycle < warm+meas; cycle++ {
		if cycle == warm {
			served0 = h.net.Stats().RepliesDelivered.Value()
		}
		for p := 0; p < n; p++ {
			req := msg.Request{ID: id, PE: p, Op: msg.FetchAdd,
				Addr: msg.Addr{MM: int(id*2654435761) % n, Word: int(id) % 97}}
			if h.st.Inject(p, req, h.cycle) {
				id++
			}
		}
		h.step()
	}
	queuedPerPE := float64(h.net.Stats().RepliesDelivered.Value()-served0) /
		float64(meas) / float64(n)

	// The unbuffered round model: one round ≈ a full transit + memory
	// access ≈ 2·stages+2 cycles; convert to per-cycle terms.
	u := NewUnbuffered(2, 5, 7)
	roundCycles := float64(2*5 + 2)
	unbufPerPE := u.Throughput(1.0, 400) / roundCycles

	if queuedPerPE < 2*unbufPerPE {
		t.Fatalf("queued %0.4f/cycle/PE not clearly above unbuffered %0.4f",
			queuedPerPE, unbufPerPE)
	}
}
