package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"testing"

	"ultracomputer/internal/engine"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/obs/reqtrace"
)

// TestObservabilityGolden is the machine-side twin of the golden test in
// internal/trace: one guest run with recorder, request tracer (rate 0.25)
// and profiler attached, every export pinned by SHA-256 under the serial
// and a 3-worker engine. It covers what the synthetic driver cannot — PE
// stall events sharing a buffer with the network's inject and deliver
// events, and the machine's own wiring of the three consumers.
func TestObservabilityGolden(t *testing.T) {
	want := map[string]string{
		"chrome": "40f9dbafac8a379754240c5d2079d69dc38788621bfdafa18207e90d63fafdc3",
		"spans":  "6377b1475eccaacc01735a703ab2ea366c0a3f5f66d0987fdec083c5d97a0e4c",
		"prof":   "9a334b547b107c53bbe22021f5304ad49d7fce85523fe6ddeef2eafa39791fd8",
		"report": "93ac952b76c6400de91ccebb12577983c058db4ccea61d17a8d026c50a9afc9d",
	}
	cfg := Config{Net: network.Config{K: 2, Stages: 3, Combining: true, QueueCapacity: 4}}
	for _, workers := range []int{0, 3} {
		m, _ := mixedSPMD(cfg, 8)()
		if workers > 0 {
			eng := engine.NewParallel(workers)
			defer eng.Close()
			m.SetEngine(eng)
		}
		rec := obs.NewRecorder(1 << 20)
		tr := reqtrace.New(reqtrace.Config{Rate: 0.25, Seed: 7, Ring: 1 << 14})
		pf := prof.New(prof.Config{PEs: 8})
		m.SetProbe(rec)
		m.SetTracer(tr)
		m.SetProfiler(pf)
		m.MustRun(5_000_000)
		if tr.CombineLinks() == 0 || rec.Overwritten() != 0 {
			t.Fatalf("workers=%d: run proves nothing: links=%d overwritten=%d", workers, tr.CombineLinks(), rec.Overwritten())
		}
		got := map[string]string{
			"chrome": sha(t, func(w io.Writer) error { return obs.WriteChromeTrace(w, rec.Events()) }),
			"spans":  sha(t, tr.WriteSpansJSONL),
			"prof":   sha(t, pf.WriteJSONL),
			"report": sha(t, func(w io.Writer) error { return json.NewEncoder(w).Encode(m.Report()) }),
		}
		for name, h := range got {
			if h != want[name] {
				t.Errorf("workers=%d: %s export changed: sha256 %s, pinned %s", workers, name, h, want[name])
			}
		}
	}
}

func sha(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatalf("export: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
