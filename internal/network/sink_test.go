package network

import (
	"testing"

	"ultracomputer/internal/engine"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/reqtrace"
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

// TestParallelUnsampledBuffersNothing drives hot-spot traffic under a
// parallel-engine stepper with a request tracer as the only consumer and
// looks into every unit buffer at the moments it is fullest — after each
// network phase, after the injections and after the collects of every
// cycle, always before the drain. Sampling at rate 0 no buffer may ever
// hold an event: the audience mask, not the consumer, turns an unsampled
// request away, so an attached tracer that samples nothing costs the
// units nothing. Sampling at rate 1 they must hold some, or the test
// would prove nothing.
func TestParallelUnsampledBuffersNothing(t *testing.T) {
	for _, rate := range []float64{0, 1} {
		h := newHarness(t, Config{K: 2, Stages: 3, Copies: 2, Combining: true, QueueCapacity: 4})
		held := 0
		look := func(bufs []obs.EventBuffer) {
			for i := range bufs {
				held += bufs[i].Len()
			}
		}
		h.st = NewStepper(h.net, inlineShards{after: func() { look(h.st.swEvents) }})
		tr := reqtrace.New(reqtrace.Config{Rate: rate})
		h.net.SetTracer(tr)
		n := h.net.Ports()
		id := uint64(1)
		for ; h.cycle < 1000; id++ {
			pe := int(id) % n
			addr := msg.Addr{MM: int(id/3) % n, Word: 1}
			if id%2 == 0 {
				addr = msg.Addr{MM: 5, Word: 0} // the hot word: combines, decombines, deferred replies
			}
			h.st.Inject(pe, msg.Request{
				ID: uint64(pe)<<32 | id, PE: pe, Op: msg.FetchAdd, Addr: addr, Operand: 1,
				TC: tr.ContextFor(uint64(pe)<<32 | id),
			}, h.cycle)
			if pe != n-1 {
				continue // one injection attempt per PE per cycle
			}
			look(h.st.peEvents)
			h.st.FlushInject()
			h.st.Step(h.cycle)
			h.serve()
			h.st.FlushMM()
			for p := 0; p < n; p++ {
				h.st.Collect(p, h.cycle)
			}
			look(h.st.peEvents)
			h.st.FlushCollect()
			h.checkActivity()
			h.cycle++
		}
		st := h.net.Stats()
		if st.Combines.Value() == 0 || st.Decombines.Value() == 0 || st.RepliesDelivered.Value() == 0 {
			t.Fatalf("rate %v: no combining traffic flowed: %+v", rate, st)
		}
		if rate == 0 && (held != 0 || tr.Completed()+tr.Dropped() != 0) {
			t.Errorf("rate 0: unit buffers held %d events over the run, the tracer saw %d", held, tr.Completed()+tr.Dropped())
		}
		if rate == 1 && (held == 0 || tr.Completed() == 0) {
			t.Errorf("rate 1: unit buffers held %d events, the tracer completed %d spans", held, tr.Completed())
		}
	}
}
