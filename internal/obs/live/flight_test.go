package live

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/obs/reqtrace"
	"ultracomputer/internal/trace"
)

// TestAlertDumpsFlight is the flight-recorder acceptance criterion: the
// hot-spot drift alert (same regime TestConformanceHotSpotTripsAlert
// proves) must automatically dump the tracer's recent complete request
// traces to FlightDir/flight-<cycle>.jsonl and record the paths in the
// published State.
func TestAlertDumpsFlight(t *testing.T) {
	cfg := network.Config{K: 2, Stages: 6, Combining: false}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config: %v", err)
	}
	dir := t.TempDir()
	tr := reqtrace.New(reqtrace.Config{Rate: 1, Seed: 17, Ring: 4096})
	sampler := obs.NewSampler(512)
	w := trace.Workload{
		Rate: 0.20, HotFraction: 0.5, Hash: true, Seed: 17,
		Observers: prof.Observers{Sampler: sampler, Tracer: tr},
	}
	feed := (&Feed{
		Monitor:   NewMonitor(ModelFor(cfg, w.MMLatency, 0)),
		Tracer:    tr,
		FlightDir: dir,
	}).Attach(sampler)
	trace.Run(cfg, w, 2000, 10000)
	feed.Finish()

	st := feed.Last()
	if st.Conformance == nil || st.Conformance.Alerts == 0 {
		t.Fatalf("hot spot raised no alerts; cannot exercise the flight recorder")
	}
	dumps := feed.FlightDumps()
	if len(dumps) == 0 {
		t.Fatal("alerts fired but no flight file was dumped")
	}
	if len(dumps) > DefaultMaxFlightDumps {
		t.Fatalf("%d flight dumps exceed the default cap %d", len(dumps), DefaultMaxFlightDumps)
	}
	if len(st.FlightDumps) != len(dumps) {
		t.Fatalf("State carries %d dump paths, feed wrote %d", len(st.FlightDumps), len(dumps))
	}

	// Every dump must be a parseable JSONL file of complete traces:
	// spans that closed with a delivery, hop timelines intact.
	for _, path := range dumps {
		if filepath.Dir(path) != dir || !strings.HasPrefix(filepath.Base(path), "flight-") {
			t.Fatalf("dump path %q not of the form %s/flight-<cycle>.jsonl", path, dir)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading dump: %v", err)
		}
		spans, err := reqtrace.ReadSpans(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		if len(spans) == 0 {
			t.Fatalf("dump %s holds no spans", path)
		}
		for _, s := range spans {
			if len(s.Hops) == 0 {
				t.Fatalf("dump %s: span %d has no hops", path, s.ID)
			}
			if s.Hops[len(s.Hops)-1].Kind != reqtrace.HopDeliver {
				t.Fatalf("dump %s: span %d is not a complete trace (ends %v)",
					path, s.ID, s.Hops[len(s.Hops)-1].Kind)
			}
			if s.Done < s.Issued {
				t.Fatalf("dump %s: span %d done %d before issued %d", path, s.ID, s.Done, s.Issued)
			}
		}
	}
}

// TestFlightEndpoint checks /trace/flight serves the tracer's current
// spans on demand and reports tracing-off clearly when no source is
// attached.
func TestFlightEndpoint(t *testing.T) {
	bare := NewServer()
	ts := httptest.NewServer(bare.Handler())
	defer ts.Close()
	code, body := get(t, ts.URL+"/trace/flight")
	if code != http.StatusNotFound || !strings.Contains(body, "not enabled") {
		t.Fatalf("/trace/flight without a tracer: code=%d body=%q", code, body)
	}

	tr := reqtrace.New(reqtrace.Config{Rate: 1, Seed: 7, Ring: 1024})
	w := trace.Workload{Rate: 0.2, HotFraction: 0.5, Seed: 7, Observers: prof.Observers{Tracer: tr}}
	trace.Run(network.Config{K: 2, Stages: 4, Combining: true}, w, 200, 1000)

	srv := NewServer()
	srv.SetFlight(tr)
	ts2 := httptest.NewServer(srv.Handler())
	defer ts2.Close()
	code, body = get(t, ts2.URL+"/trace/flight")
	if code != http.StatusOK {
		t.Fatalf("/trace/flight: code=%d", code)
	}
	spans, err := reqtrace.ReadSpans(strings.NewReader(body))
	if err != nil {
		t.Fatalf("parsing /trace/flight body: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("/trace/flight served no spans after a traced run")
	}
}
