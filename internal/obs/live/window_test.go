package live

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/trace"
)

// TestEventsWindowContract pins what /events serves, through the kit a
// session builds (a mounted feed server, nothing else asked): each
// published State carries the newest min(fresh, DefaultTailEvents)
// events emitted since the previous publish, oldest first, events_total
// counts every event ever emitted, and the Done State carries none.
func TestEventsWindowContract(t *testing.T) {
	srv := NewFeedServer()
	k := Flags{}.New(64, srv, nil)
	var emitted uint64
	window := func(n int, cycle int64) *State {
		t.Helper()
		for i := 0; i < n; i++ {
			emitted++
			k.Probe.Emit(obs.Event{Cycle: cycle, Kind: obs.KindInject, ID: emitted})
		}
		k.Sampler.Record(obs.Snapshot{Cycle: cycle})
		st := srv.Current()
		if st == nil || st.Cycle != cycle {
			t.Fatalf("no State published for cycle %d: %+v", cycle, st)
		}
		return st
	}
	// 3 × 256 + 7 events: a window below the cap, one of exactly the cap
	// (straddling the tail's wrap) and one of twice the cap.
	for i, n := range []int{7, DefaultTailEvents, 2 * DefaultTailEvents} {
		st := window(n, int64(64*(i+1)))
		want := min(n, DefaultTailEvents)
		if len(st.Events) != want {
			t.Fatalf("window %d: State carries %d events, want %d", i, len(st.Events), want)
		}
		for j, ev := range st.Events {
			if id := emitted - uint64(want) + 1 + uint64(j); ev.ID != id {
				t.Fatalf("window %d: event %d has ID %d, want %d (newest %d in emit order)", i, j, ev.ID, id, want)
			}
		}
		if st.EventsTotal != int64(emitted) {
			t.Errorf("window %d: events_total = %d, want %d", i, st.EventsTotal, emitted)
		}
	}
	if emitted != 3*DefaultTailEvents+7 {
		t.Fatalf("fed %d events, want %d", emitted, 3*DefaultTailEvents+7)
	}
	k.Feed.Finish()
	if st := srv.Current(); !st.Done || len(st.Events) != 0 || st.EventsTotal != int64(emitted) {
		t.Errorf("Done State: done=%v events=%d events_total=%d, want true, 0, %d", st.Done, len(st.Events), st.EventsTotal, emitted)
	}
}

// TestTraceAndServeShareEvents: a run that is served as well as traced
// writes the Chrome trace of a run that is only traced — serving may
// not drop, reorder or duplicate what the -trace ring holds. The ring is
// smaller than the run, so the two must also drop the same oldest events.
func TestTraceAndServeShareEvents(t *testing.T) {
	cfg := network.Config{K: 2, Stages: 4, Combining: true}
	dir := t.TempDir()
	run := func(name string, srv *Server) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		k := Flags{Trace: path}.New(32, srv, nil)
		w := trace.Workload{Rate: 0.2, HotFraction: 0.1, Hash: true, Seed: 23, Observers: k.Observers}
		if err := k.Start(io.Discard, cfg, w.MMLatency, nil); err != nil {
			t.Fatal(err)
		}
		trace.Run(cfg, w, 100, 400)
		if err := k.Finish(io.Discard); err != nil {
			t.Fatal(err)
		}
		if got := k.Recorder.Overwritten(); got == 0 {
			t.Fatalf("%s: the run fit the ring; the test wants it to wrap", name)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	traced := run("traced.json", nil)
	srv := NewFeedServer()
	served := run("served.json", srv)
	if !bytes.Equal(traced, served) {
		t.Errorf("Chrome traces differ: %d bytes traced only, %d bytes traced and served", len(traced), len(served))
	}
	if st := srv.Current(); st == nil || !st.Done || st.EventsTotal == 0 {
		t.Errorf("the served run published no final State with events: %+v", st)
	}
}
