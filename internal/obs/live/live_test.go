package live

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/trace"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// The endpoints must behave sensibly across the server's whole
// lifecycle: before any publish, after hand-fed publishes (so every
// assertion is deterministic), and after Finish.
func TestServerEndpoints(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Nothing published: alive, empty, and explicit about it.
	if code, body := get(t, ts.URL+"/metrics"); code != 200 || !strings.Contains(body, "ultra_up 0") {
		t.Errorf("/metrics before publish: code=%d body=%q", code, body)
	}
	if code, _ := get(t, ts.URL+"/snapshot.json"); code != http.StatusServiceUnavailable {
		t.Errorf("/snapshot.json before publish: code=%d, want 503", code)
	}
	if code, body := get(t, ts.URL+"/healthz"); code != 200 || !strings.Contains(body, `"published": false`) {
		t.Errorf("/healthz before publish: code=%d body=%q", code, body)
	}

	// Hand-feed two snapshots through the sampler so the second one
	// carries rates and a conformance verdict.
	sampler := obs.NewSampler(64)
	feed := (&Feed{
		Server:  srv,
		Monitor: NewMonitor(ModelFor(network.Config{K: 2, Stages: 6, Combining: true}, 2, 0)),
		Report:  func() any { return map[string]int{"pes": 64} },
	}).Attach(sampler)
	for i := 0; i < 3; i++ {
		feed.Emit(obs.Event{Cycle: int64(60 + i), Kind: obs.KindInject, Op: msg.FetchAdd, PE: int32(i), Stage: -1, MM: -1, Copy: 0, ID: uint64(i + 1)})
	}
	sampler.Record(obs.Snapshot{
		Cycle: 64, Injected: 400, MMServed: 300, RTCount: 250, RTSum: 8000,
		StageQueueOcc: []float64{0.5, 0.25}, StageQueuePackets: []int64{32, 16},
		StageQueueMax: []int64{4, 2}, StageReplyOcc: []float64{0.1, 0.1},
		MMServedPerModule: make([]int64, 64),
	})
	// Two more events land in the second window; /events serves only the
	// events new to the current window.
	feed.Emit(obs.Event{Cycle: 100, Kind: obs.KindCombine, Op: msg.FetchAdd, PE: -1, Stage: 2, MM: -1, Copy: 0, ID: 1, ID2: 2})
	feed.Emit(obs.Event{Cycle: 120, Kind: obs.KindReplyDeliver, Op: msg.FetchAdd, PE: 1, Stage: -1, MM: 3, Copy: 0, ID: 2})
	sampler.Record(obs.Snapshot{
		Cycle: 128, Injected: 810, MMServed: 700, RTCount: 600, RTSum: 20000,
		StageQueueOcc: []float64{0.6, 0.3}, StageQueuePackets: []int64{38, 19},
		StageQueueMax: []int64{5, 2}, StageReplyOcc: []float64{0.1, 0.1},
		MMServedPerModule: make([]int64, 64),
	})

	_, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"ultra_up 1",
		"ultra_cycle 128",
		"ultra_injected_total 810",
		"ultra_mm_served_total 700",
		"ultra_rt_count_total 600",
		`ultra_stage_tomm_occ{stage="0"} 0.6`,
		`ultra_stage_tomm_max{stage="1"} 2`,
		`ultra_mm_module_served_total{mm="63"} 0`,
		"ultra_model_rho",
		"ultra_model_predicted_rt",
		"ultra_model_drift",
		"ultra_events_total 5",
		"ultra_done 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body := get(t, ts.URL+"/snapshot.json")
	if code != 200 {
		t.Fatalf("/snapshot.json: code=%d", code)
	}
	var st State
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/snapshot.json: %v\n%s", err, body)
	}
	if st.Cycle != 128 || st.Seq != 2 || st.Conformance == nil {
		t.Errorf("snapshot: cycle=%d seq=%d conformance=%v", st.Cycle, st.Seq, st.Conformance)
	}
	if !strings.Contains(body, `"pes": 64`) {
		t.Error("snapshot missing the driver report")
	}

	_, events := get(t, ts.URL+"/events")
	sc := bufio.NewScanner(strings.NewReader(events))
	lines := 0
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("/events line %d: %v: %s", lines, err, sc.Text())
		}
		if lines == 0 && ev["kind"] != "Combine" {
			t.Errorf("first event kind = %v, want Combine", ev["kind"])
		}
		lines++
	}
	if lines != 2 {
		t.Errorf("/events returned %d lines, want 2", lines)
	}

	feed.Finish()
	if _, m := get(t, ts.URL+"/metrics"); !strings.Contains(m, "ultra_done 1") {
		t.Error("/metrics after Finish missing ultra_done 1")
	}
	// follow=1 must terminate promptly once the run is done.
	if code, _ := get(t, ts.URL+"/events?follow=1"); code != 200 {
		t.Errorf("/events?follow=1 after done: code=%d", code)
	}
	if code, body := get(t, ts.URL+"/healthz"); code != 200 || !strings.Contains(body, `"done": true`) {
		t.Errorf("/healthz after finish: code=%d body=%q", code, body)
	}
}

// The acceptance scenario for the concurrency contract: HTTP clients
// hammer every endpoint while the simulation publishes from its own
// goroutine. Under -race this proves the copy-on-sample hand-off.
func TestServerConcurrentWithRun(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := network.Config{K: 2, Stages: 6, Combining: true}
	sampler := obs.NewSampler(64)
	feed := (&Feed{
		Server:  srv,
		Monitor: NewMonitor(ModelFor(cfg, 0, 0)),
	}).Attach(sampler)

	done := make(chan struct{})
	go func() {
		defer close(done)
		trace.Run(cfg, trace.Workload{
			Rate: 0.15, Hash: true, Seed: 17,
			Observers: prof.Observers{Probe: feed, Sampler: sampler},
		}, 1000, 8000)
		feed.Finish()
	}()

	polls := 0
	for {
		select {
		case <-done:
		default:
		}
		for _, ep := range []string{"/metrics", "/snapshot.json", "/events", "/healthz"} {
			resp, err := http.Get(ts.URL + ep)
			if err != nil {
				t.Fatalf("GET %s: %v", ep, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		polls++
		select {
		case <-done:
			st := feed.Last()
			if st == nil || !st.Done {
				t.Fatal("final state missing or not done")
			}
			if st.Snapshot.Injected == 0 {
				t.Error("run injected nothing")
			}
			t.Logf("polled all endpoints %d times during the run", polls)
			return
		default:
		}
	}
}

func TestWriteMetricsNil(t *testing.T) {
	var b strings.Builder
	writeMetrics(&b, nil)
	if !strings.Contains(b.String(), "ultra_up 0") {
		t.Errorf("nil state metrics = %q", b.String())
	}
}
