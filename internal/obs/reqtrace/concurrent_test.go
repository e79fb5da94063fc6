package reqtrace_test

import (
	"io"
	"sync"
	"testing"

	"ultracomputer/internal/network"
	"ultracomputer/internal/obs/reqtrace"
	"ultracomputer/internal/trace"
)

// TestConcurrentReaders: the shape of a live-telemetry run — an HTTP
// handler's goroutine snapshots and dumps the flight recorder while the
// simulation emits at rate 1 on hot-spot traffic, through a ring small
// enough that every span it reads is recycled many times over. Every
// snapshot must be of whole, completed spans; under -race (make race)
// this is also the regression test for what mu does and does not guard.
func TestConcurrentReaders(t *testing.T) {
	tr := reqtrace.New(reqtrace.Config{Rate: 1, Seed: 7, Ring: 64})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range append(tr.Spans(), tr.SlowSpans()...) {
				last := s.Hops[len(s.Hops)-1]
				if last.Kind != reqtrace.HopDeliver || last.Cycle != s.Done || s.Latency != s.Done-s.Issued {
					t.Errorf("snapshot holds a torn span: %+v", *s)
					return
				}
			}
			if err := tr.WriteFlightJSONL(io.Discard); err != nil {
				t.Error(err)
				return
			}
			if tr.Completed() < 0 || tr.Active() < 0 || tr.Dropped() != 0 {
				t.Errorf("completed %d, active %d, dropped %d", tr.Completed(), tr.Active(), tr.Dropped())
				return
			}
		}
	}()
	w := trace.Workload{Rate: 0.25, HotFraction: 0.5, Seed: 7}
	w.Tracer = tr
	res := trace.Run(network.Config{K: 2, Stages: 4, Combining: true}, w, 200, 1500)
	close(stop)
	wg.Wait()
	if res.Combines == 0 || tr.CombineLinks() == 0 || tr.Completed() < 64*10 {
		t.Errorf("%d combines, %d links, %d spans: too light a run to prove anything", res.Combines, tr.CombineLinks(), tr.Completed())
	}
}
