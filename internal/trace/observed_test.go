package trace

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/reqtrace"
)

// observedArtifact runs the synthetic-traffic driver with the probe,
// sampler and request tracer attached and returns everything observable:
// the Result, the full event stream, the metrics JSONL bytes, and the
// tracer's flight-recorder JSONL bytes (sampling at 0.6 exercises both
// the traced and untraced branch of every hop site).
func observedArtifact(t *testing.T, cfg network.Config, w Workload) (Result, []obs.Event, []byte, []byte) {
	t.Helper()
	rec := obs.NewRecorder(1 << 20)
	sampler := obs.NewSampler(32)
	tr := reqtrace.New(reqtrace.Config{Rate: 0.6, Seed: 11, Ring: 1 << 14})
	w.Probe, w.Sampler, w.Tracer = rec, sampler, tr
	res := Run(cfg, w, 200, 1200)
	var mb bytes.Buffer
	if err := sampler.WriteJSONL(&mb); err != nil {
		t.Fatalf("metrics export: %v", err)
	}
	var fb bytes.Buffer
	if err := tr.WriteFlightJSONL(&fb); err != nil {
		t.Fatalf("flight export: %v", err)
	}
	return res, rec.Events(), mb.Bytes(), fb.Bytes()
}

// TestObservedRunMatchesUnobserved: the consumers only watch. Across the
// Figure 7 switch shapes and workload variants (hot spot, bursty, copies)
// a run with probe, sampler and request tracer attached reports the
// Result of the same seed run with nothing attached, and a second
// observed run hands its consumers the same event stream, metrics bytes
// and flight bytes.
func TestObservedRunMatchesUnobserved(t *testing.T) {
	cases := []struct {
		name string
		cfg  network.Config
		w    Workload
	}{
		{"k2-uniform", network.Config{K: 2, Stages: 4, Combining: true},
			Workload{Rate: 0.2, Hash: true, Seed: 17}},
		{"k4-uniform", network.Config{K: 4, Stages: 2, Combining: true},
			Workload{Rate: 0.2, Hash: true, Seed: 17}},
		{"k2-copies2-hot", network.Config{K: 2, Stages: 3, Copies: 2, Combining: true},
			Workload{Rate: 0.25, HotFraction: 0.3, Seed: 5}},
		{"k2-bursty-mixedops", network.Config{K: 2, Stages: 4, Combining: true},
			Workload{Rate: 0.15, Burstiness: 16, LoadFrac: 0.4, StoreFrac: 0.3, Hash: true, Seed: 99}},
		{"k2-nocombining", network.Config{K: 2, Stages: 3},
			Workload{Rate: 0.1, Seed: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, ev, met, fl := observedArtifact(t, tc.cfg, tc.w)
			if len(ev) == 0 || len(fl) == 0 || res.Served == 0 {
				t.Fatalf("run proves nothing: %d events, %d flight bytes, %d served", len(ev), len(fl), res.Served)
			}
			if got, want := resultKey(res), resultKey(Run(tc.cfg, tc.w, 200, 1200)); got != want {
				t.Errorf("Result differs with consumers attached\n unobserved %s\n observed   %s", want, got)
			}
			res2, ev2, met2, fl2 := observedArtifact(t, tc.cfg, tc.w)
			if resultKey(res) != resultKey(res2) {
				t.Errorf("Result differs between two observed runs")
			}
			if !slices.Equal(ev, ev2) {
				t.Errorf("event streams differ between two observed runs (%d vs %d events)", len(ev), len(ev2))
			}
			if !bytes.Equal(met, met2) || !bytes.Equal(fl, fl2) {
				t.Errorf("metrics or flight JSONL differ between two observed runs")
			}
		})
	}
}

// resultKey renders every field of a Result into a comparable string
// (histograms and means included via their observable summaries).
func resultKey(r Result) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s p50=%v p99=%v oneway={%v %v} rt={%v %v} perMM=%v",
		r.String(), r.RTP50, r.RTP99, r.OneWay.N(), r.OneWay.Value(),
		r.RoundTrip.N(), r.RoundTrip.Value(), r.PerModuleServed)
	if r.QueueLen != nil {
		fmt.Fprintf(&b, " qlen=%+v", *r.QueueLen)
	}
	return b.String()
}
