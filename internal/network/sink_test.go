package network

import (
	"testing"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/engine"
	"ultracomputer/internal/memory"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/reqtrace"
	"ultracomputer/internal/pe"
)

// inlineShards is a two-worker engine that runs a phase's shards inline,
// one after the other, and then calls after: every unit of the phase has
// run and the stepper has not yet drained their buffers.
type inlineShards struct{ after func() }

func (e inlineShards) Run(n int, fn func(lo, hi, worker int)) {
	for w := 0; w < 2; w++ {
		if lo, hi := engine.Shard(n, 2, w); lo < hi {
			fn(lo, hi, w)
		}
	}
	e.after()
}
func (inlineShards) Workers() int { return 2 }
func (inlineShards) Close()       {}

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
		k.c.Fill(k.c.Block(a), make([]int64, k.c.BlockWords()))
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

// TestParallelUnsampledBuffersNothing drives hot-spot traffic from real
// PEs under a parallel-engine stepper and looks into every unit buffer —
// the switches' and the PEs', which hold the PE's own stall, cache and
// profiler events beside the network's for it — at the moments it is
// fullest: after each network phase, after the ticks and after the
// collects of every cycle, always before the drain. With nothing
// attached, and with a request tracer sampling at rate 0 as the only
// consumer, no buffer may ever hold an event: the audience mask, not the
// consumer, turns an event away, so an attached tracer that samples
// nothing costs the units nothing. Sampling at rate 1, and with a
// recorder and a profiler attached, they must hold some — for the latter
// stall, cache and profiler events among them — or the test would prove
// nothing.
func TestParallelUnsampledBuffersNothing(t *testing.T) {
	for _, c := range []struct {
		name     string
		tracer   *reqtrace.Tracer
		rec, pf  *obs.Recorder
		wantHeld bool
	}{
		{name: "nothing attached"},
		{name: "tracer at rate 0", tracer: reqtrace.New(reqtrace.Config{Rate: 0})},
		{name: "tracer at rate 1", tracer: reqtrace.New(reqtrace.Config{Rate: 1}), wantHeld: true},
		{name: "recorder and profiler", rec: obs.NewRecorder(1 << 16), pf: obs.NewRecorder(1 << 16), wantHeld: true},
	} {
		h := newHarness(t, Config{K: 2, Stages: 3, Copies: 2, Combining: true, QueueCapacity: 4})
		held := 0
		look := func(bufs []obs.EventBuffer) {
			for i := range bufs {
				held += bufs[i].Len()
			}
		}
		h.st = NewStepper(h.net, inlineShards{after: func() { look(h.st.swEvents) }})
		if c.tracer != nil {
			h.net.SetTracer(c.tracer)
		}
		if c.rec != nil {
			h.net.SetProbe(c.rec)
			h.net.SetProfiler(c.pf)
		}
		n := h.net.Ports()
		pes := make([]*pe.PE, n)
		for i := range pes {
			i := i
			core := &hotCore{c: cache.New(cache.Config{Sets: 2, Ways: 1, BlockWords: 4})}
			pes[i] = pe.New(i, core, memory.Interleave{N: n}, func(r msg.Request) bool {
				return h.st.Inject(i, r, h.cycle)
			}, 4)
			subs, out := h.st.PESink(i)
			pes[i].Observe(subs, out, 1, c.tracer)
		}
		for ; h.cycle < 1000; h.cycle++ {
			for _, p := range pes {
				p.Tick(h.cycle, n, 0)
			}
			look(h.st.peEvents)
			h.st.FlushInject()
			h.st.Step(h.cycle)
			h.serve()
			h.st.FlushMM()
			for i, p := range pes {
				for _, rep := range h.st.Collect(i, h.cycle) {
					p.Deliver(rep, h.cycle)
				}
			}
			look(h.st.peEvents)
			h.st.FlushCollect()
			h.checkActivity()
			h.checkConservation()
			h.checkAliasing()
		}
		st := h.net.Stats()
		if st.Combines.Value() == 0 || st.Decombines.Value() == 0 || st.RepliesDelivered.Value() == 0 || pes[0].Stats().IdlePipeline.Value() == 0 {
			t.Fatalf("%s: no combining traffic flowed or no PE stalled: %+v", c.name, st)
		}
		if (held != 0) != c.wantHeld {
			t.Errorf("%s: unit buffers held %d events over the run", c.name, held)
		}
		if tr := c.tracer; tr != nil && (tr.Completed()+tr.Dropped() != 0) != c.wantHeld {
			t.Errorf("%s: the tracer completed %d spans and dropped %d events", c.name, tr.Completed(), tr.Dropped())
		}
		if c.rec == nil {
			continue
		}
		seen := map[obs.Kind]bool{}
		for _, r := range []*obs.Recorder{c.rec, c.pf} {
			for _, ev := range r.Events() {
				seen[ev.Kind] = true
			}
		}
		for _, k := range []obs.Kind{
			obs.KindStallBegin, obs.KindStallEnd, obs.KindCacheHit, obs.KindCacheMiss, obs.KindCacheWriteBack,
			obs.KindProfCycle, obs.KindProfIssue, obs.KindProfDeliver, obs.KindCombine,
		} {
			if !seen[k] {
				t.Errorf("%s: no %v event came out of the unit buffers", c.name, k)
			}
		}
	}
}
