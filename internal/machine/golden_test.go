package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/engine"
	"ultracomputer/internal/isa"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/live"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/obs/reqtrace"
)

// cachedGuest is the golden cached ISA guest: every PE fills a 16-word
// private region through a 2-line write-back cache (write-allocate
// misses, then evictions that write dirty words back), sums it again
// through the cache (misses and hits), flushes and releases it, calls a
// subroutine that fetch-and-adds a hot word (combines; a call frame for
// the profiler), and spins on the arrival count until every PE is in.
const cachedGuest = `
	rdpe r1
	rdnp r20
	li   r2, 64
	mul  r2, r1, r2
	addi r2, r2, 1024      ; my region's base
	li   r3, 0
	li   r4, 16
fill:	add  r5, r2, r3
	add  r6, r1, r3
	csts r6, 0(r5)
	addi r3, r3, 1
	blt  r3, r4, fill
	li   r3, 0
	li   r7, 0
sum:	add  r5, r2, r3
	clds r6, 0(r5)
	add  r7, r7, r6
	addi r3, r3, 1
	blt  r3, r4, sum
	addi r8, r2, 16
	cflu r2, r8
	crel r2, r8
	clds r9, 3(r2)         ; re-fetched from central memory after the release
	add  r7, r7, r9
	jal  r30, arrive
	li   r10, 8
wait:	lds  r11, 0(r10)
	blt  r11, r20, wait    ; spin until every PE has arrived
	addi r12, r1, 16
	sts  r7, 0(r12)        ; publish my checksum
	halt
arrive:	li   r10, 8
	li   r13, 1
	faa  r14, 0(r10), r13
	faa  r15, 1(r10), r7
	jr   r30
`

// goldenLeg is one pinned run of TestObservabilityGolden.
type goldenLeg struct {
	name  string
	build func(t *testing.T) (*Machine, prof.Config)
	want  map[string]string
}

func cachedLeg(ideal bool) func(t *testing.T) (*Machine, prof.Config) {
	return func(t *testing.T) (*Machine, prof.Config) {
		prog := isa.MustAssemble(cachedGuest)
		cfg := Config{
			Net: network.Config{K: 2, Stages: 3, Combining: true, QueueCapacity: 4},
			PEs: 8, Hashing: true, IdealMemory: ideal,
		}
		m, _, err := Load(cfg, prog, LoadOptions{Cache: &cache.Config{Sets: 2, Ways: 1, BlockWords: 4}})
		if err != nil {
			t.Fatal(err)
		}
		return m, prof.Config{PEs: 8, Programs: []*isa.Program{prog}, File: "cached.s", Source: cachedGuest}
	}
}

// TestObservabilityGolden is the machine-side twin of the golden test in
// internal/trace: guest runs with recorder, request tracer (rate 0.25)
// and profiler attached, every export pinned by SHA-256 under the serial
// and a 3-worker engine. It covers what the synthetic driver cannot — PE
// stall events sharing a buffer with the network's inject and deliver
// events, cache hit/miss/write-back events, the profiler's pc-attributed
// cycle, issue and deliver hooks, the IdealMemory path that drains the
// PEs' buffers without a network phase, and the machine's own wiring of
// the three consumers.
func TestObservabilityGolden(t *testing.T) {
	legs := []goldenLeg{
		{
			name: "mixed",
			build: func(*testing.T) (*Machine, prof.Config) {
				cfg := Config{Net: network.Config{K: 2, Stages: 3, Combining: true, QueueCapacity: 4}}
				m, _ := mixedSPMD(cfg, 8)()
				return m, prof.Config{PEs: 8}
			},
			want: map[string]string{
				"chrome": "40f9dbafac8a379754240c5d2079d69dc38788621bfdafa18207e90d63fafdc3",
				"spans":  "6377b1475eccaacc01735a703ab2ea366c0a3f5f66d0987fdec083c5d97a0e4c",
				"prof":   "9a334b547b107c53bbe22021f5304ad49d7fce85523fe6ddeef2eafa39791fd8",
				"report": "93ac952b76c6400de91ccebb12577983c058db4ccea61d17a8d026c50a9afc9d",
			},
		},
		{
			name:  "cached",
			build: cachedLeg(false),
			want: map[string]string{
				"events": "3b1cc57c198f434bd186a14281b67c78c4b407dc9807478785211e52927ba56c",
				"chrome": "e69bab62a1137c0033e4a559f1a6799d58607ecb445b4e051894ff43923c289a",
				"spans":  "8e00552a3d25a715c32d555f4de55b20d8aad1f3770f5626436520f5720e46ac",
				"prof":   "9b04883271bc1a5ee760c432b5e125d0245724c776557972d4d20cf929c4b106",
				"report": "77afdadfa64fed19f92003aa3784bf03480227263d9b7b1be7ab1f3fdcb74b46",
			},
		},
		{
			name:  "cached-ideal",
			build: cachedLeg(true),
			want: map[string]string{
				"events": "62a80f3011481f6b98e07dbd982933fe90edc766cdb5a88fadec2e6e5c505956",
				"chrome": "a92a104719497c82c2a9e4ff3eda7831d1e8712c8818a82f7ee1f1e2e3838b5f",
				"prof":   "429cb5a44145c279a81d54ebb8d46c406d3fc0e8415ecc6d308e422cbaef534e",
				"report": "33b4a1764f18c4d3ff7dd3f117cd6d28d70184e99ddae343d313d3f101102953",
			},
		},
	}
	for _, leg := range legs {
		for _, workers := range []int{0, 3} {
			m, pcfg := leg.build(t)
			if workers > 0 {
				eng := engine.NewParallel(workers)
				defer eng.Close()
				m.SetEngine(eng)
			}
			rec := obs.NewRecorder(1 << 20)
			tr := reqtrace.New(reqtrace.Config{Rate: 0.25, Seed: 7, Ring: 1 << 14})
			pf := prof.New(pcfg)
			m.Observe(prof.Observers{Probe: rec, Tracer: tr, Profiler: pf})
			m.MustRun(5_000_000)
			if rec.Overwritten() != 0 || (!m.cfg.IdealMemory && tr.CombineLinks() == 0) {
				t.Fatalf("%s workers=%d: run proves nothing: links=%d overwritten=%d", leg.name, workers, tr.CombineLinks(), rec.Overwritten())
			}
			if pcfg.Programs != nil {
				kinds := map[obs.Kind]int{}
				for _, ev := range rec.Events() {
					kinds[ev.Kind]++
				}
				for _, k := range []obs.Kind{obs.KindCacheHit, obs.KindCacheMiss, obs.KindCacheWriteBack, obs.KindStallBegin, obs.KindStallEnd} {
					if kinds[k] == 0 {
						t.Fatalf("%s workers=%d: run proves nothing: no %v event recorded", leg.name, workers, k)
					}
				}
			}
			srv := live.NewFeedServer()
			srv.Publish(&live.State{Seq: 1, Done: true, Events: rec.Events()})
			rr := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/events", nil))
			got := map[string]string{
				"events": sha(t, func(w io.Writer) error { _, err := io.Copy(w, rr.Body); return err }),
				"chrome": sha(t, func(w io.Writer) error { return obs.WriteChromeTrace(w, rec.Events()) }),
				"spans":  sha(t, tr.WriteSpansJSONL),
				"prof":   sha(t, pf.WriteJSONL),
				"report": sha(t, func(w io.Writer) error { return json.NewEncoder(w).Encode(m.Report()) }),
			}
			for name, h := range leg.want {
				if got[name] != h {
					t.Errorf("%s workers=%d: %s export changed: sha256 %s, pinned %s", leg.name, workers, name, got[name], h)
				}
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
