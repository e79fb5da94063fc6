package reqtrace_test

import (
	"testing"

	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/reqtrace"
	"ultracomputer/internal/trace"
)

// loadProbe, attached as the run's recorder, looks at the tracer's active
// table before every event the tracer hears too (the fan-out serves the
// recorder first): every span opening and closing is among them.
type loadProbe struct {
	tr                *reqtrace.Tracer
	worst, worstSlots int
	over              int
}

func (p *loadProbe) Emit(obs.Event) { p.look() }

func (p *loadProbe) look() {
	held, slots := p.tr.Active(), reqtrace.ActiveSlots(p.tr)
	if 2*held > slots {
		p.over++
	}
	if held > p.worst {
		p.worst, p.worstSlots = held, slots
	}
}

// TestActiveTableAtMostHalfFull: a rate-1 trace through trace.Run —
// the benchmark's observed 64-port shape, and a combining hot spot —
// never makes the table of spans under assembly more than half full.
func TestActiveTableAtMostHalfFull(t *testing.T) {
	for _, c := range []struct {
		name string
		net  network.Config
		w    trace.Workload
	}{
		{"uniform", network.Config{K: 2, Stages: 6, Combining: true}, trace.Workload{Rate: 0.2, Hash: true, Seed: 1001}},
		{"hotspot", network.Config{K: 2, Stages: 4, Combining: true}, trace.Workload{Rate: 0.25, HotFraction: 0.5, Seed: 7}},
	} {
		tr := reqtrace.New(reqtrace.Config{Rate: 1})
		p := &loadProbe{tr: tr}
		w := c.w
		w.Tracer, w.Probe = tr, p
		trace.Run(c.net, w, 200, 500)
		p.look()
		if p.over != 0 {
			t.Errorf("%s: the table was more than half full at %d events", c.name, p.over)
		}
		if p.worst < 100 || tr.Completed() < 1000 {
			t.Errorf("%s: at most %d spans under assembly, %d completed: too light a run to prove anything",
				c.name, p.worst, tr.Completed())
		}
		t.Logf("%s: at most %d spans under assembly, in %d slots", c.name, p.worst, p.worstSlots)
	}
}
