package network

import (
	"runtime"
	"testing"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/sim"
)

// TestStepAllocBudgetUnderTraffic is the steady-traffic companion of the
// ZeroAlloc tests, which drive a machine with nothing in flight: on the
// benchmark's 64-port shape at the Figure 7 reference rate (p = 0.2),
// uniform and with 10 % of references to one hot word, 2 000 cycles after
// a 1 000-cycle warm-up may allocate fewer than one object per two
// cycles. What is left by then is the growth-only tail of the lazily
// grown queue arrays (about one object per eight cycles, still falling);
// a closure, a boxed port or a by-value escape on the cycle path costs at
// least one per cycle. The driver around the network allocates nothing,
// so Inject, MMDequeue, MMReply and Collect are inside the budget too.
func TestStepAllocBudgetUnderTraffic(t *testing.T) {
	for _, hot := range []float64{0, 0.1} {
		n := New(Config{K: 2, Stages: 6, Combining: true})
		st := NewStepper(n, nil)
		ports := n.Ports()
		const words = 64
		var (
			mem     = make([]int64, ports*words)
			pending = make([]msg.Reply, ports) // per MM: a reply the MNI queue refused
			waiting = make([]bool, ports)
			seq     = make([]uint64, ports)
			rng     = sim.NewRand(7)
			hotOps  = [...]msg.Op{msg.Load, msg.Store, msg.FetchAdd}
		)
		cycle := func(c int64) {
			for pe := 0; pe < ports; pe++ {
				if !rng.Bernoulli(0.2) {
					continue
				}
				seq[pe]++
				r := msg.Request{
					ID: uint64(pe)<<32 | seq[pe], PE: pe, Op: msg.FetchAdd, Operand: 1,
					Addr: msg.Addr{MM: rng.Intn(ports), Word: rng.Intn(words)},
				}
				if rng.Bernoulli(hot) {
					r.Op, r.Addr = hotOps[rng.Intn(len(hotOps))], msg.Addr{MM: 5, Word: 9}
				}
				st.Inject(pe, r, c)
			}
			st.Step(c)
			for mm := 0; mm < ports; mm++ {
				if waiting[mm] {
					waiting[mm] = !n.MMReply(mm, pending[mm])
				} else if r, ok := st.MMDequeue(mm); ok {
					cell := &mem[mm*words+r.Addr.Word]
					var ret int64
					*cell, ret = msg.Apply(r.Op, *cell, r.Operand)
					pending[mm] = r.Reply(ret)
					waiting[mm] = !n.MMReply(mm, pending[mm])
				}
			}
			for pe := 0; pe < ports; pe++ {
				st.Collect(pe, c)
			}
		}
		const warmup, measured = 1000, 2000
		for c := int64(0); c < warmup; c++ {
			cycle(c)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for c := int64(warmup); c < warmup+measured; c++ {
			cycle(c)
		}
		runtime.ReadMemStats(&after)
		allocs := after.Mallocs - before.Mallocs
		t.Logf("hot %.0f%%: %d objects over %d cycles (%.3f per cycle), %d replies delivered",
			100*hot, allocs, measured, float64(allocs)/measured, n.Stats().RepliesDelivered.Value())
		if n.Stats().RepliesDelivered.Value() < measured || (hot > 0 && n.Stats().Combines.Value() == 0) {
			t.Fatalf("hot %.0f%%: the traffic did not flow: %+v", 100*hot, n.Stats())
		}
		if 2*allocs >= measured {
			t.Errorf("hot %.0f%%: %d objects allocated over %d cycles of steady traffic, want fewer than one per two cycles",
				100*hot, allocs, measured)
		}
	}
}
