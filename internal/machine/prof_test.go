package machine

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"ultracomputer/internal/engine"
	"ultracomputer/internal/isa"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/prof"
)

// profQueueRun loads examples/asm/queue.s on 8 PEs with the profiler
// attached and runs it to completion under eng (nil = serial).
func profQueueRun(t *testing.T, eng engine.Engine) (*Machine, *prof.Profiler, int64) {
	t.Helper()
	src, err := os.ReadFile("../../examples/asm/queue.s")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isa.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Net:     network.Config{K: 2, Stages: 3, Combining: true},
		PEs:     8,
		Hashing: true,
	}
	m, _, err := Load(cfg, prog, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := prof.New(prof.Config{
		PEs:      8,
		Programs: []*isa.Program{prog},
		File:     "queue.s",
		Source:   string(src),
	})
	if eng != nil {
		m.SetEngine(eng)
	}
	m.Observe(prof.Observers{Profiler: p})
	peCycles := m.MustRun(5_000_000)
	return m, p, peCycles
}

// TestProfilerCycleConservation: every PE cycle lands in exactly one
// state bucket, so the profile total is PEs x measured PE cycles.
func TestProfilerCycleConservation(t *testing.T) {
	_, p, peCycles := profQueueRun(t, nil)
	m := p.Merged()
	want := 8 * peCycles
	if m.TotalCycles != want {
		t.Fatalf("profile total %d cycles, want PEs x peCycles = %d", m.TotalCycles, want)
	}
	for _, row := range m.PEs {
		if row.Total != peCycles {
			t.Errorf("pe %d: %d cycles attributed, want %d", row.PE, row.Total, peCycles)
		}
	}
	// The pprof export must conserve the same total.
	b, err := p.PprofBytes()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := prof.ParsePprof(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := pp.TotalValue(); got != want {
		t.Fatalf("pprof total %d cycles, want %d", got, want)
	}
	if len(pp.Samples) == 0 {
		t.Fatal("pprof has no samples")
	}
	// Guest labels must be symbolized (queue.s label spans).
	found := false
	for i := range pp.Samples {
		if name := pp.FuncName(&pp.Samples[i]); strings.HasPrefix(name, "queue.s:") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no queue.s:<label> function names in pprof samples")
	}
}

// TestProfilerHeatmap: queue.s hammers its shared queue words; the
// heatmap must record accesses, wait cycles and (with combining on)
// combines, and rank a contended word at the top.
func TestProfilerHeatmap(t *testing.T) {
	_, p, _ := profQueueRun(t, nil)
	m := p.Merged()
	if len(m.Addrs) == 0 {
		t.Fatal("empty heatmap")
	}
	var best prof.AddrRow
	var combines int64
	for _, r := range m.Addrs {
		if r.Accesses > best.Accesses {
			best = r
		}
		combines += r.Combines
	}
	if best.Accesses == 0 || best.WaitCycles == 0 {
		t.Fatalf("hot word has no traffic: %+v", best)
	}
	if combines == 0 {
		t.Fatal("no combines recorded with combining enabled")
	}
	if len(m.Locks) == 0 {
		t.Fatal("no lock wait distributions (queue.s uses faa)")
	}
}

// TestProfDeterministic: two runs of the same program write the same
// profile bytes, pprof and JSONL — the determinism contract extended to
// the profiler.
func TestProfDeterministic(t *testing.T) {
	var pb [2][]byte
	var jsonl [2]bytes.Buffer
	for i := range pb {
		_, p, _ := profQueueRun(t, nil)
		var err error
		if pb[i], err = p.PprofBytes(); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteJSONL(&jsonl[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(pb[0]) == 0 || jsonl[0].Len() == 0 {
		t.Fatal("empty profile")
	}
	if !bytes.Equal(pb[0], pb[1]) || !bytes.Equal(jsonl[0].Bytes(), jsonl[1].Bytes()) {
		t.Error("two runs of the same program wrote different profiles")
	}
}

// TestProfEngineEquivalence: profile bytes (pprof and JSONL) are the
// same whether the engine hands each phase over whole or cut into ranges
// of 1, 3 or 8 units.
func TestProfEngineEquivalence(t *testing.T) {
	profile := func(eng engine.Engine) (pb, jsonl []byte) {
		_, p, _ := profQueueRun(t, eng)
		pb, err := p.PprofBytes()
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := p.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return pb, b.Bytes()
	}
	wantPB, wantJSON := profile(nil)
	if len(wantPB) == 0 || len(wantJSON) == 0 {
		t.Fatal("empty serial profile")
	}
	for _, c := range []chunked{1, 3, 8} {
		gotPB, gotJSON := profile(c)
		if !bytes.Equal(wantPB, gotPB) {
			t.Errorf("chunk=%d: pprof bytes differ from serial (%d vs %d bytes)", c, len(gotPB), len(wantPB))
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("chunk=%d: JSONL differs from serial", c)
		}
	}
}

// TestProfilerSpinDetection: a test-and-set loop over a word held by
// another PE must show spin cycles; the TDR-style F&A path of queue.s
// is covered above.
func TestProfilerSpinDetection(t *testing.T) {
	src := `
; PE0 takes the lock and holds it while counting; PE1..3 spin on swp.
        rdpe r9
        li   r10, 100
        li   r1, 1
        bne  r9, r0, lock
        swp  r4, 0(r10), r1  ; PE0: acquire (memory starts 0)
        li   r5, 0
        li   r6, 400
warm:   addi r5, r5, 1
        blt  r5, r6, warm
        sts  r0, 0(r10)      ; release
        halt
lock:   swp  r4, 0(r10), r1  ; test-and-set
        bne  r4, r0, lock    ; saw 1: still held, spin
        sts  r0, 0(r10)
        halt
`
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Net:     network.Config{K: 2, Stages: 2, Combining: true},
		PEs:     4,
		Hashing: true,
	}
	m, _, err := Load(cfg, prog, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := prof.New(prof.Config{PEs: 4, Programs: []*isa.Program{prog}, File: "spin.s"})
	m.Observe(prof.Observers{Profiler: p})
	m.MustRun(5_000_000)
	var spin int64
	for _, row := range p.Merged().PEs {
		spin += row.States[obs.ProfSpin]
	}
	if spin == 0 {
		t.Fatal("no spin cycles detected in a test-and-set loop")
	}
}
