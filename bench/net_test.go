package main

import (
	"testing"

	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/trace"
)

// The phase driver must return exactly what trace.Run returns for the
// same inputs — with and without spans, with and without the
// instrumentation attached. A 16-port network for 300 cycles.
func TestPhaseDriverFidelity(t *testing.T) {
	cfg := network.Config{K: 2, Stages: 4, Copies: 1, Combining: true}
	const warmup, measure = 100, 200
	for _, kind := range []netKind{netUniform, netHotspot, netObserved} {
		for _, seed := range []uint64{goldenSeed, 5} {
			w := netWorkload(kind, seed)
			want := simOf(trace.Run(cfg, w, warmup, measure))
			if want.Served == 0 {
				t.Fatalf("%s: trace.Run served nothing", kind.name())
			}

			var nc netCounts
			if got := simOf(phaseRun(cfg, w, warmup, measure, nil, -1, &nc)); got != want {
				t.Errorf("%s seed %d: phase driver\n got  %+v\n want %+v", kind.name(), seed, got, want)
			}
			if nc.cycles != warmup+measure || nc.injected < want.Injected || nc.offered < nc.injected {
				t.Errorf("%s seed %d: counts %+v against %+v", kind.name(), seed, nc, want)
			}

			sp := newSpanRec()
			op := sp.begin("bench.op", -1)
			iw := w
			var kit *obsKit
			if kind == netObserved {
				kit = &obsKit{rec: obs.NewRecorder(1 << 12)}
				iw = kit.attach(w)
			}
			got := simOf(phaseRun(cfg, iw, warmup, measure, sp, op, &nc))
			sp.end(op)
			if got != want {
				t.Errorf("%s seed %d: traced phase driver\n got  %+v\n want %+v", kind.name(), seed, got, want)
			}
			if n := len(sp.spans); n != 1+4*(warmup+measure) {
				t.Errorf("%s: %d spans, want one op span and four a cycle", kind.name(), n)
			}
			// The four phases and the op's own self time account for the
			// whole op.
			var sum int64
			for _, d := range selfTimes(sp.spans) {
				sum += d
			}
			if total := sp.spans[op].End - sp.spans[op].Start; sum != total {
				t.Errorf("%s: self times sum to %d ns, the op span is %d ns", kind.name(), sum, total)
			}
			if kit != nil {
				if kit.rec.Total() == 0 || kit.tracer.Completed() == 0 {
					t.Errorf("instrumentation saw nothing: %d events, %d spans", kit.rec.Total(), kit.tracer.Completed())
				}
				if err := kit.export(); err != nil {
					t.Error(err)
				}
			}
		}
	}
}
