package network

import (
	"testing"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/memory"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/reqtrace"
	"ultracomputer/internal/pe"
)

// hotCore is a guest that exercises every PE-side emit site: each tick
// it works through its own cache (hits, misses, write-backs) and issues a
// fetch-and-add, alternately to the hot word — so requests combine, and
// the one-outstanding-per-location rule refuses the next and the PE
// stalls — and to a word of its own.
type hotCore struct {
	c     *cache.Cache
	ticks int64
}

func (k *hotCore) Tick(env *pe.Env) pe.TickResult {
	if k.ticks == 0 {
		env.ObserveCache(k.c)
	}
	k.ticks++
	if a := k.ticks % 24; !k.c.Contains(a) {
		k.c.Fill(k.c.Block(a), make([]int64, k.c.BlockWords()), nil)
	} else {
		k.c.Write(a, k.ticks) // a hit, and a dirty word for a later Fill to write back
	}
	k.c.Read((k.ticks + 8) % 24)
	addr := int64(5) // the hot word: combines, decombines, deferred replies
	if k.ticks%2 == 0 {
		addr = 64 + int64(env.PEID())*8 + k.ticks%8
	}
	return pe.TickResult{Executed: env.Issue(msg.FetchAdd, addr, 1, -1)}
}
func (*hotCore) Complete(int, int64) {}

// TestUnsampledEmitsNothing drives hot-spot traffic from real PEs, wired
// to the stepper's PESink, through a network whose invariants are checked
// every cycle. With nothing attached the run must still flow; with a
// trace consumer attached but a request tracer sampling at rate 0, the
// consumer must receive no event at all — the audience mask, not the
// consumer, turns an unsampled request's events away. Sampling at rate 1
// it must receive some, and a recorder and profiler must see every kind
// of PE-side, cache and network event, or the test would prove nothing.
func TestUnsampledEmitsNothing(t *testing.T) {
	for _, c := range []struct {
		name       string
		rate       float64 // the PEs' request tracer; < 0: none
		trace      bool    // a recorder subscribed as the trace consumer
		recAndProf bool
	}{
		{name: "nothing attached", rate: -1},
		{name: "tracer at rate 0", rate: 0, trace: true},
		{name: "tracer at rate 1", rate: 1, trace: true},
		{name: "recorder and profiler", rate: -1, recAndProf: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t, Config{K: 2, Stages: 3, Copies: 2, Combining: true, QueueCapacity: 4})
			var tr *reqtrace.Tracer
			if c.rate >= 0 {
				tr = reqtrace.New(reqtrace.Config{Rate: c.rate})
			}
			traced := obs.NewRecorder(1 << 16)
			if c.trace {
				h.net.SetTracer(traced)
			}
			rec, pf := obs.NewRecorder(1<<16), obs.NewRecorder(1<<16)
			if c.recAndProf {
				h.net.SetProbe(rec)
				h.net.SetProfiler(pf)
			}
			n := h.net.Ports()
			pes := make([]*pe.PE, n)
			for i := range pes {
				core := &hotCore{c: cache.New(cache.Config{Sets: 2, Ways: 1, BlockWords: 4})}
				pes[i] = pe.New(i, core, memory.Interleave{N: n}, func(pe int, r msg.Request) bool {
					return h.st.Inject(pe, r, h.cycle)
				}, 4)
				subs, out := h.st.PESink()
				pes[i].Observe(subs, out, 1, tr)
			}
			for ; h.cycle < 1000; h.cycle++ {
				for _, p := range pes {
					p.Tick(h.cycle, n, 0)
				}
				h.st.Step(h.cycle)
				h.serve()
				for i, p := range pes {
					for _, rep := range h.st.Collect(i, h.cycle) {
						p.Deliver(rep, h.cycle)
					}
				}
				h.checkActivity()
				h.checkConservation()
				h.checkAliasing()
			}
			st := h.net.Stats()
			if st.Combines.Value() == 0 || st.Decombines.Value() == 0 || st.RepliesDelivered.Value() == 0 || pes[0].Stats().IdlePipeline.Value() == 0 {
				t.Fatalf("no combining traffic flowed or no PE stalled: %+v", st)
			}
			if got, want := traced.Total() != 0, c.trace && c.rate > 0; got != want {
				t.Errorf("the trace consumer received %d events", traced.Total())
			}
			if !c.recAndProf {
				return
			}
			seen := map[obs.Kind]bool{}
			for _, r := range []*obs.Recorder{rec, pf} {
				for _, ev := range r.Events() {
					seen[ev.Kind] = true
				}
			}
			for _, k := range []obs.Kind{
				obs.KindStallBegin, obs.KindStallEnd, obs.KindCacheHit, obs.KindCacheMiss, obs.KindCacheWriteBack,
				obs.KindProfCycle, obs.KindProfIssue, obs.KindProfDeliver, obs.KindCombine,
			} {
				if !seen[k] {
					t.Errorf("no %v event reached the recorder or the profiler", k)
				}
			}
		})
	}
}
