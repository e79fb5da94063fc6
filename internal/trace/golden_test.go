package trace_test

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http/httptest"
	"reflect"
	"testing"

	"ultracomputer/internal/engine"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/live"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/obs/reqtrace"
	"ultracomputer/internal/trace"
)

// The golden workload: a hot spot through a combining network whose
// switch queues hold barely more than one message, so decombined second
// replies regularly wait in the revDefer register, with a load / store /
// fetch-and-add mix and two network copies.
var (
	goldenNet = network.Config{K: 2, Stages: 4, Copies: 2, Combining: true, QueueCapacity: 4}
	goldenW   = trace.Workload{
		Rate: 0.45, HotFraction: 0.4, HotWord: 5, LoadFrac: 0.3, StoreFrac: 0.2,
		Hash: true, Seed: 23,
	}
)

const goldenCycles = 600

func sum(write func(io.Writer) error, t *testing.T) string {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatalf("export: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestObservabilityGolden pins, by SHA-256, every export the three
// observability consumers produce for one seeded run: the recorder's
// Chrome trace and /events window, the request tracer's span JSONL and
// Chrome trace (sampling at 0.25, so sampled requests, unsampled ones and
// partners adopted at a combine all occur) and the profiler's JSONL. The
// equivalence suites prove serial ≡ parallel; this proves before ≡ after:
// a change to how events reach their consumers must leave every byte of
// every export where it was.
func TestObservabilityGolden(t *testing.T) {
	want := map[string]string{
		"chrome":       "00eeedcd0266aef895a1fbc8938b488d9bee14c79714c4c65f978c3c9c3393e9",
		"events":       "51bad28b6c2bdac94583e0b595dbe9f29d8da36c64bf8765eb2c93b34f57c430",
		"spans":        "9490afae921b038271a384eeb983af68561d847abbb60fa771c69742a8bc7035",
		"spans-chrome": "2987c605622be97b58072a012a3850fe050671863a51b6abb235371329acffdf",
		"prof":         "b21158343a7d49421826e5c209bc0e4c70a9d4e493c3482300fafd219a4db1ff",
	}
	const wantCompleted, wantLinks, wantDropped = int64(1041), int64(661), int64(0)
	for _, workers := range []int{0, 3} {
		var eng engine.Engine
		if workers > 0 {
			eng = engine.NewParallel(workers)
		}
		rec := obs.NewRecorder(1 << 20)
		tr := reqtrace.New(reqtrace.Config{Rate: 0.25, Seed: 7, Ring: 1 << 14})
		pf := prof.New(prof.Config{PEs: goldenNet.Ports()})
		w := goldenW
		w.Probe, w.Tracer, w.Profiler = rec, tr, pf
		res := trace.RunEngine(goldenNet, w, 0, goldenCycles, eng)
		if eng != nil {
			eng.Close()
		}
		adopted := 0
		for _, s := range tr.Spans() {
			if s.Adopted {
				adopted++
			}
		}
		if res.Combines == 0 || adopted == 0 || adopted == len(tr.Spans()) || rec.Overwritten() != 0 {
			t.Fatalf("workers=%d: run proves nothing: combines=%d spans=%d adopted=%d overwritten=%d",
				workers, res.Combines, len(tr.Spans()), adopted, rec.Overwritten())
		}
		if c, l, d := tr.Completed(), tr.CombineLinks(), tr.Dropped(); c != wantCompleted || l != wantLinks || d != wantDropped {
			t.Errorf("workers=%d: tracer completed %d spans, linked %d combines, dropped %d events; pinned %d, %d, %d",
				workers, c, l, d, wantCompleted, wantLinks, wantDropped)
		}
		srv := live.NewFeedServer()
		srv.Publish(&live.State{Seq: 1, Done: true, Events: rec.Events()})
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/events", nil))
		got := map[string]string{
			"chrome":       sum(func(w io.Writer) error { return obs.WriteChromeTrace(w, rec.Events()) }, t),
			"events":       sum(func(w io.Writer) error { _, err := io.Copy(w, rr.Body); return err }, t),
			"spans":        sum(tr.WriteSpansJSONL, t),
			"spans-chrome": sum(tr.WriteChrome, t),
			"prof":         sum(pf.WriteJSONL, t),
		}
		for name, h := range got {
			if h != want[name] {
				t.Errorf("workers=%d: %s export changed: sha256 %s, pinned %s", workers, name, h, want[name])
			}
		}
	}
}

// TestProfilerOnlyCounts runs the golden workload with the profiler as
// the only consumer — no recorder, no tracer — and pins its combine sum
// and per-module serve sums, which must also be the simulation's own.
func TestProfilerOnlyCounts(t *testing.T) {
	const wantCombines = int64(1131)
	wantServed := []int64{134, 131, 276, 121, 132, 130, 122, 116, 138, 123, 133, 126, 107, 144, 134, 136}
	for _, workers := range []int{0, 3} {
		var eng engine.Engine
		if workers > 0 {
			eng = engine.NewParallel(workers)
		}
		pf := prof.New(prof.Config{PEs: goldenNet.Ports()})
		w := goldenW
		w.Profiler = pf
		res := trace.RunEngine(goldenNet, w, 0, goldenCycles, eng)
		if eng != nil {
			eng.Close()
		}
		var combines int64
		served := make([]int64, goldenNet.Ports())
		for _, row := range pf.Merged().Addrs {
			combines += row.Combines
			served[row.MM] += row.Served
		}
		if combines != wantCombines || combines != res.Combines {
			t.Errorf("workers=%d: profiler saw %d combines, network %d, pinned %d",
				workers, combines, res.Combines, wantCombines)
		}
		if !reflect.DeepEqual(served, wantServed) || !reflect.DeepEqual(served, res.PerModuleServed) {
			t.Errorf("workers=%d: profiler saw serves per MM\n %v, modules\n %v, pinned\n %v",
				workers, served, res.PerModuleServed, wantServed)
		}
	}
}
