package live

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs/prof"
)

// faaLoop keeps eight PEs adding to one word for a few thousand cycles.
const faaLoop = `
        li   r1, 100
        li   r2, 1
        li   r6, 200
loop:   faa  r3, 0(r1), r2
        addi r5, r5, 1
        blt  r5, r6, loop
        halt
`

// TestProfileEndpoint serves a profiled machine run the way -serve -prof
// does (Kit.Start enables live publishing and mounts the profiler): /profile
// answers mid-run, and after the run, with a gzipped pprof that decodes to
// every PE cycle profiled so far. A server with no profiler says so.
func TestProfileEndpoint(t *testing.T) {
	bare := httptest.NewServer(NewServer().Handler())
	defer bare.Close()
	if code, body := get(t, bare.URL+"/profile"); code != http.StatusNotFound || !strings.Contains(body, "not enabled") {
		t.Fatalf("/profile without a profiler: code=%d body=%q", code, body)
	}

	const pes = 8
	prog := isa.MustAssemble(faaLoop)
	cfg := machine.Config{Net: network.Config{K: 2, Stages: 3, Combining: true}, PEs: pes, MMLatency: 2}
	m, _, err := machine.Load(cfg, prog, machine.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := prof.New(prof.Config{PEs: pes, Programs: []*isa.Program{prog}, File: "faa.s"})
	srv := NewServer()
	k := Flags{}.New(64, srv, p)
	m.Observe(k.Observers)
	if err := k.Start(io.Discard, cfg.Net, cfg.MMLatency, nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, _ := get(t, ts.URL+"/profile"); code != http.StatusServiceUnavailable {
		t.Fatalf("/profile before the first publish: code=%d, want 503", code)
	}

	profiled := func(when string) int64 {
		t.Helper()
		code, body := get(t, ts.URL+"/profile")
		if code != http.StatusOK {
			t.Fatalf("/profile %s: code=%d body=%q", when, code, body)
		}
		pp, err := prof.ParsePprof([]byte(body))
		if err != nil {
			t.Fatalf("/profile %s: %v", when, err)
		}
		if pp.TotalValue() <= 0 {
			t.Fatalf("/profile %s decodes to %d cycles", when, pp.TotalValue())
		}
		return pp.TotalValue()
	}
	if _, done := m.Run(1000); done {
		t.Fatal("the run finished before its midpoint")
	}
	mid := profiled("mid-run")
	if _, done := m.Run(1_000_000); !done {
		t.Fatal("cycle limit reached before all PEs halted")
	}
	if end := profiled("after the run"); end <= mid {
		t.Errorf("profile holds %d cycles after the run, %d mid-run", end, mid)
	}
}
