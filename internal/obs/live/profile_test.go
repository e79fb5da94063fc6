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
// answers mid-run, and after the run, with the gzipped pprof the profiler
// last published, and the profile grows between the two. A server with
// no profiler says so.
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

	// served fetches /profile, which must be the profiler's last
	// published bytes; the profile itself is stock pprof's to read
	// (prof.TestStockPprofReadsExport).
	served := func(when string) string {
		t.Helper()
		code, body := get(t, ts.URL+"/profile")
		if code != http.StatusOK {
			t.Fatalf("/profile %s: code=%d body=%q", when, code, body)
		}
		if live := p.LiveProfile(); len(live) == 0 || body != string(live) {
			t.Fatalf("/profile %s serves %d bytes, the profiler published %d others", when, len(body), len(live))
		}
		return body
	}
	if _, done := m.Run(1000); done {
		t.Fatal("the run finished before its midpoint")
	}
	midBody, mid := served("mid-run"), p.Merged().TotalCycles
	if _, done := m.Run(1_000_000); !done {
		t.Fatal("cycle limit reached before all PEs halted")
	}
	endBody, end := served("after the run"), p.Merged().TotalCycles
	if mid <= 0 || end <= mid {
		t.Errorf("profile holds %d cycles after the run, %d mid-run", end, mid)
	}
	if endBody == midBody {
		t.Error("/profile served the same bytes mid-run and after the run")
	}
}
