package trace_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http/httptest"
	"reflect"
	"testing"

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

// goldenShape is one seeded run whose exports TestObservabilityGolden
// pins: the consumers attached to it, its length, and the SHA-256 of each
// export it writes.
type goldenShape struct {
	name                      string
	net                       network.Config
	w                         trace.Workload
	warmup, measure           int64
	recCap                    int
	tracer                    reqtrace.Config
	want                      map[string]string
	completed, links, dropped int64
	// check rejects a run too small to prove what the shape is for.
	check func(res trace.Result, rec *obs.Recorder, tr *reqtrace.Tracer) string
}

var goldenShapes = []goldenShape{{
	// The recorder's Chrome trace and /events window, the request
	// tracer's span JSONL and Chrome trace (sampling at 0.25, so sampled
	// requests, unsampled ones and partners adopted at a combine all
	// occur) and the profiler's JSONL.
	name: "hotspot", net: goldenNet, w: goldenW, measure: goldenCycles,
	recCap: 1 << 20, tracer: reqtrace.Config{Rate: 0.25, Seed: 7, Ring: 1 << 14},
	want: map[string]string{
		"chrome":       "00eeedcd0266aef895a1fbc8938b488d9bee14c79714c4c65f978c3c9c3393e9",
		"events":       "51bad28b6c2bdac94583e0b595dbe9f29d8da36c64bf8765eb2c93b34f57c430",
		"spans":        "9490afae921b038271a384eeb983af68561d847abbb60fa771c69742a8bc7035",
		"spans-chrome": "2987c605622be97b58072a012a3850fe050671863a51b6abb235371329acffdf",
		"prof":         "b21158343a7d49421826e5c209bc0e4c70a9d4e493c3482300fafd219a4db1ff",
	},
	completed: 1041, links: 661, dropped: 0,
	check: func(res trace.Result, rec *obs.Recorder, tr *reqtrace.Tracer) string {
		adopted := 0
		for _, s := range tr.Spans() {
			if s.Adopted {
				adopted++
			}
		}
		if res.Combines == 0 || adopted == 0 || adopted == len(tr.Spans()) || rec.Overwritten() != 0 {
			return fmt.Sprintf("combines=%d spans=%d adopted=%d overwritten=%d",
				res.Combines, len(tr.Spans()), adopted, rec.Overwritten())
		}
		return ""
	},
}, {
	// The benchmark's net-observed op: 64 ports at p = 0.2 uniform, every
	// request traced into the default 1 024-span ring (so completed spans
	// wrap it and their storage is recycled), a recorder ring of 1 << 16
	// events that wraps too, and a profiler.
	name: "net-observed", net: network.Config{K: 2, Stages: 6, Copies: 1, Combining: true},
	w: trace.Workload{Rate: 0.2, Hash: true, Seed: 1001}, warmup: 200, measure: 500,
	recCap: 1 << 16, tracer: reqtrace.Config{Rate: 1},
	want: map[string]string{
		"chrome":       "3bbbce2110c1a0c13a932018f86a51344c4342f849cc8c4019c56edcf0c8363b",
		"spans":        "ffd5def069ba41eaef8219c8cea03693a6bc371d8ce55407216f228242f74340",
		"spans-chrome": "9f10a429a27dc3052a66ad6b5b976ce6a5791cb3d42f817cb2e268075ff887ae",
		"prof":         "d3ef5532af48ee53e9d4a31137433b3b30f14e786f8e73d6817ee317b0abba3a",
	},
	completed: 8450, links: 0, dropped: 0,
	check: func(res trace.Result, rec *obs.Recorder, tr *reqtrace.Tracer) string {
		if tr.Completed() <= 1024 || rec.Overwritten() == 0 {
			return fmt.Sprintf("completed=%d overwritten=%d: neither ring may stay unwrapped",
				tr.Completed(), rec.Overwritten())
		}
		return ""
	},
}}

// TestObservabilityGolden pins, by SHA-256, every export the three
// observability consumers produce for each seeded run of goldenShapes.
// A change to how events reach their consumers, or to what an event
// holds, must leave every byte of every export where it was.
func TestObservabilityGolden(t *testing.T) {
	for _, sh := range goldenShapes {
		t.Run(sh.name, func(t *testing.T) {
			rec := obs.NewRecorder(sh.recCap)
			tr := reqtrace.New(sh.tracer)
			pf := prof.New(prof.Config{PEs: sh.net.Ports()})
			w := sh.w
			w.Probe, w.Tracer, w.Profiler = rec, tr, pf
			res := trace.Run(sh.net, w, sh.warmup, sh.measure)
			if why := sh.check(res, rec, tr); why != "" {
				t.Fatalf("run proves nothing: %s", why)
			}
			if c, l, d := tr.Completed(), tr.CombineLinks(), tr.Dropped(); c != sh.completed || l != sh.links || d != sh.dropped {
				t.Errorf("tracer completed %d spans, linked %d combines, dropped %d events; pinned %d, %d, %d",
					c, l, d, sh.completed, sh.links, sh.dropped)
			}
			exports := map[string]func(io.Writer) error{
				"chrome":       func(w io.Writer) error { return obs.WriteChromeTrace(w, rec.Events()) },
				"spans":        tr.WriteSpansJSONL,
				"spans-chrome": tr.WriteChrome,
				"prof":         pf.WriteJSONL,
				"events": func(w io.Writer) error {
					srv := live.NewFeedServer()
					srv.Publish(&live.State{Seq: 1, Done: true, Events: rec.Events()})
					rr := httptest.NewRecorder()
					srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/events", nil))
					_, err := io.Copy(w, rr.Body)
					return err
				},
			}
			for name, want := range sh.want {
				if h := sum(exports[name], t); h != want {
					t.Errorf("%s export changed: sha256 %s, pinned %s", name, h, want)
				}
			}
		})
	}
}

// TestProfilerOnlyCounts runs the golden workload with the profiler as
// the only consumer — no recorder, no tracer — and pins its combine sum
// and per-module serve sums, which must also be the simulation's own.
func TestProfilerOnlyCounts(t *testing.T) {
	const wantCombines = int64(1131)
	wantServed := []int64{134, 131, 276, 121, 132, 130, 122, 116, 138, 123, 133, 126, 107, 144, 134, 136}
	pf := prof.New(prof.Config{PEs: goldenNet.Ports()})
	w := goldenW
	w.Profiler = pf
	res := trace.Run(goldenNet, w, 0, goldenCycles)
	var combines int64
	served := make([]int64, goldenNet.Ports())
	for _, row := range pf.Merged().Addrs {
		combines += row.Combines
		served[row.MM] += row.Served
	}
	if combines != wantCombines || combines != res.Combines {
		t.Errorf("profiler saw %d combines, network %d, pinned %d",
			combines, res.Combines, wantCombines)
	}
	if !reflect.DeepEqual(served, wantServed) || !reflect.DeepEqual(served, res.PerModuleServed) {
		t.Errorf("profiler saw serves per MM\n %v, modules\n %v, pinned\n %v",
			served, res.PerModuleServed, wantServed)
	}
}
