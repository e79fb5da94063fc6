package pe

import (
	"fmt"
	"reflect"
	"testing"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
)

// seen renders a consumer's view of a run, one string an event.
func seen(r *obs.Recorder) (out []string) {
	for _, ev := range r.Events() {
		s := fmt.Sprintf("%d:%s", ev.Cycle, ev.Kind)
		switch ev.Kind {
		case obs.KindStallBegin, obs.KindStallEnd:
			s += ":" + ev.Cause.String()
		case obs.KindProfCycle:
			s += fmt.Sprintf(":pc%d:%s", ev.Aux, obs.ProfState(ev.Value))
		case obs.KindProfIssue:
			s += fmt.Sprintf(":pc%d:%s@%d", ev.Aux, ev.Op, ev.Value)
		case obs.KindProfDeliver:
			s += fmt.Sprintf(":pc%d:%s@%d=%d+%d", ev.Aux, ev.Op, ev.Value, int64(ev.ID), ev.ID2)
		default:
			s += fmt.Sprintf("@%d", ev.Value)
		}
		if ev.PE != 3 {
			s += fmt.Sprintf(" (PE %d!)", ev.PE)
		}
		out = append(out, s)
	}
	return out
}

// pcCore is a stubCore that reports a guest pc.
type pcCore struct {
	stubCore
	pc int
}

func (c *pcCore) PC() int { return c.pc }

// TestPEEventsOneChannel scripts one PE through every instrumented
// moment — an issue, a stall on the locked value, a change of stall
// cause, the delivery, cache miss / fill / hit / write-back, the halt and
// a post-halt cycle — with recorder, tracer and profiler subscribed to
// its fan-out, and checks that each moment reaches exactly the consumers
// Subs.For names for it, exactly once: stalls and cache events the
// recorder, cycles, issues and deliveries the profiler, nothing the
// tracer. A counting probe between the PE and its fan-out sees one event
// per moment someone listens to: with only the recorder attached the
// profiler's moments build no event.
func TestPEEventsOneChannel(t *testing.T) {
	run := func(profiled bool) (rec, tr, pf []string, total int) {
		var fan obs.Fanout
		r, tc, p := obs.NewRecorder(64), obs.NewRecorder(64), obs.NewRecorder(64)
		fan.Subscribe(obs.SubRecord, r)
		fan.Subscribe(obs.SubTrace, tc)
		if profiled {
			fan.Subscribe(obs.SubProf, p)
		}
		out := &countingProbe{to: &fan}
		f := &fakeNet{}
		c := cache.New(cache.Config{Sets: 1, Ways: 1, BlockWords: 2})
		core := &pcCore{}
		script := []func(env *Env) TickResult{
			func(env *Env) TickResult { // pc 10: issue a load
				env.ObserveCache(c)
				return TickResult{Executed: env.Issue(msg.Load, 100, 0, 0)}
			},
			func(env *Env) TickResult { return TickResult{} }, // pc 11: the value is locked
			func(env *Env) TickResult { // pc 12: the network is full
				f.refuse = true
				return TickResult{Executed: env.Issue(msg.Store, 7, 1, -1)}
			},
			func(env *Env) TickResult { // pc 13: cache traffic
				c.Write(4, 1) // miss
				c.Fill(4, []int64{0, 0}, nil)
				c.Write(4, 1)                 // hit, dirty
				c.Fill(6, []int64{0, 0}, nil) // evicts the dirty word
				return TickResult{Executed: true}
			},
			func(env *Env) TickResult { return TickResult{Halted: true} },
		}
		pe := newTestPE(core, f)
		pe.Observe(fan.Subs(), out, 2, nil)
		for cycle, step := range script {
			core.pc, core.onTick = 10+cycle, step
			if cycle == 2 {
				pe.Deliver(msg.Reply{ID: f.reqs[0].ID, PE: 3, Op: msg.Load, Addr: f.reqs[0].Addr, Value: 42}, int64(cycle))
			}
			pe.Tick(int64(cycle), 4, 0)
		}
		pe.Tick(int64(len(script)), 4, 0) // halted
		return seen(r), seen(tc), seen(p), out.n
	}
	rec, tr, pf, total := run(true)
	wantRec := []string{
		"2:StallBegin:memory",
		"4:StallEnd:memory", "4:StallBegin:net-full",
		"-1:CacheMiss@4", "-1:CacheHit@4", "-1:CacheWriteBack@4",
		"6:StallEnd:net-full",
	}
	wantPf := []string{
		"0:ProfIssue:pc10:Load@100", "0:ProfCycle:pc10:execute",
		"2:ProfCycle:pc11:memory-wait",
		"4:ProfDeliver:pc10:Load@100=42+2", "4:ProfCycle:pc12:net-full-stall",
		"6:ProfCycle:pc13:execute",
		"8:ProfCycle:pc14:execute",
		"10:ProfCycle:pc14:halted",
	}
	if !reflect.DeepEqual(rec, wantRec) {
		t.Errorf("recorder saw\n  %q, want\n  %q", rec, wantRec)
	}
	if !reflect.DeepEqual(pf, wantPf) {
		t.Errorf("profiler saw\n  %q, want\n  %q", pf, wantPf)
	}
	if len(tr) != 0 {
		t.Errorf("tracer saw %q, want nothing: no PE event is a traced request's", tr)
	}
	if want := len(wantRec) + len(wantPf); total != want {
		t.Errorf("the PE built %d events, want %d: one per moment, whoever listens", total, want)
	}
	if _, _, _, total := run(false); total != len(wantRec) {
		t.Errorf("without a profiler the PE built %d events, want the recorder's %d", total, len(wantRec))
	}
}

// countingProbe counts the events a PE builds and forwards them.
type countingProbe struct {
	to obs.Probe
	n  int
}

func (c *countingProbe) Emit(ev obs.Event) {
	c.n++
	c.to.Emit(ev)
}
