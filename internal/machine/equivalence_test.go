package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"ultracomputer/internal/engine"
	"ultracomputer/internal/isa"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/obs/reqtrace"
)

// chunked is an engine.Engine that honours the interface's contract the
// long way round: it runs each phase as ascending ranges of at most that
// many units, one call each, instead of engine.Serial's single range.
type chunked int

func (c chunked) Run(n int, fn func(lo, hi, worker int)) {
	for lo := 0; lo < n; lo += int(c) {
		fn(lo, min(lo+int(c), n), 0)
	}
}

// artifact captures every observable output of a run: the Chrome trace
// bytes, the sampled metrics JSONL bytes, the JSON report, the request
// tracer's span and flight-recorder JSONL, and final shared memory /
// register state. Engine equivalence means all of them match byte for
// byte.
type artifact struct {
	trace   []byte
	metrics []byte
	report  []byte
	spans   []byte
	flight  []byte
	state   []byte
}

// runArtifact executes the machine mk builds under eng (nil = serial)
// with the full observability stack attached and returns the run's
// complete output.
func runArtifact(t *testing.T, mk func() (*Machine, func(m *Machine) string), eng engine.Engine) artifact {
	t.Helper()
	m, finalState := mk()
	if eng != nil {
		m.SetEngine(eng)
	}
	rec := obs.NewRecorder(1 << 20)
	sampler := obs.NewSampler(16)
	// Sample at 0.6 so both branches of every hop-record site run (some
	// requests traced, some not) and mid-flight adoption triggers when a
	// traced request combines with an untraced one.
	tr := reqtrace.New(reqtrace.Config{Rate: 0.6, Seed: 11, Ring: 1 << 14})
	m.Observe(prof.Observers{Probe: rec, Sampler: sampler, Tracer: tr})
	m.MustRun(5_000_000)

	var a artifact
	var tb bytes.Buffer
	if err := obs.WriteChromeTrace(&tb, rec.Events()); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	a.trace = tb.Bytes()
	var mb bytes.Buffer
	if err := sampler.WriteJSONL(&mb); err != nil {
		t.Fatalf("metrics export: %v", err)
	}
	a.metrics = mb.Bytes()
	rep, err := json.Marshal(m.Report())
	if err != nil {
		t.Fatalf("report marshal: %v", err)
	}
	a.report = rep
	var sb, fb bytes.Buffer
	if err := tr.WriteSpansJSONL(&sb); err != nil {
		t.Fatalf("span export: %v", err)
	}
	a.spans = sb.Bytes()
	if err := tr.WriteFlightJSONL(&fb); err != nil {
		t.Fatalf("flight export: %v", err)
	}
	a.flight = fb.Bytes()
	a.state = []byte(finalState(m))
	return a
}

// mixedFixture is mixedSPMD with the shared words it leaves behind.
func mixedFixture(cfg Config, pes int) func() (*Machine, func(*Machine) string) {
	return func() (*Machine, func(*Machine) string) {
		return mixedSPMD(cfg, pes), func(m *Machine) string {
			var b bytes.Buffer
			for a := int64(0); a < 160; a++ {
				fmt.Fprintf(&b, "M[%d]=%d\n", a, m.ReadShared(a))
			}
			return b.String()
		}
	}
}

// guestASM loads one of the shipped assembly programs.
func guestASM(t *testing.T, cfg Config, file string) func() (*Machine, func(*Machine) string) {
	t.Helper()
	src, err := os.ReadFile("../../examples/asm/" + file)
	if err != nil {
		t.Fatalf("read %s: %v", file, err)
	}
	prog, err := isa.Assemble(string(src))
	if err != nil {
		t.Fatalf("assemble %s: %v", file, err)
	}
	return func() (*Machine, func(*Machine) string) {
		m, cores, err := Load(cfg, prog, LoadOptions{})
		if err != nil {
			t.Fatalf("load %s: %v", file, err)
		}
		return m, func(m *Machine) string {
			var b bytes.Buffer
			for a := int64(0); a < 64; a++ {
				fmt.Fprintf(&b, "M[%d]=%d\n", a, m.ReadShared(a))
			}
			for i, c := range cores {
				for r := 0; r < isa.NumRegs; r++ {
					fmt.Fprintf(&b, "pe%d.r%d=%d\n", i, r, c.Reg(r))
				}
			}
			return b.String()
		}
	}
}

// TestEngineEquivalence: the engine.Engine contract lets Run hand a
// phase over in several ascending ranges, so Step's phase bodies must
// not care how a phase is cut. The same machine run under engine.Serial
// and under engines that cut every phase into ranges of 1, 3 and 8 units
// (3 divides no unit count evenly) produces byte-identical trace files,
// metrics files, span and flight dumps, reports and final architectural
// state.
func TestEngineEquivalence(t *testing.T) {
	type fixture struct {
		name string
		mk   func() (*Machine, func(*Machine) string)
	}
	fixtures := []fixture{
		{"k2-s4-combining", mixedFixture(Config{
			Net: network.Config{K: 2, Stages: 4, Combining: true}, Hashing: true,
		}, 16)},
		{"k4-s2-combining", mixedFixture(Config{
			Net: network.Config{K: 4, Stages: 2, Combining: true}, Hashing: true,
		}, 16)},
		{"k2-s3-nocombining", mixedFixture(Config{
			Net: network.Config{K: 2, Stages: 3},
		}, 8)},
		{"k2-s3-copies2", mixedFixture(Config{
			Net: network.Config{K: 2, Stages: 3, Copies: 2, Combining: true},
		}, 8)},
		{"ideal-memory", mixedFixture(Config{
			Net: network.Config{K: 2, Stages: 3, Combining: true}, IdealMemory: true,
		}, 8)},
		{"guest-queue", guestASM(t, Config{
			Net: network.Config{K: 2, Stages: 3, Combining: true}, Hashing: true, PEs: 8,
		}, "queue.s")},
		{"guest-barrier", guestASM(t, Config{
			Net: network.Config{K: 2, Stages: 3, Combining: true}, Hashing: true, PEs: 8,
		}, "barrier.s")},
		{"guest-rw", guestASM(t, Config{
			Net: network.Config{K: 2, Stages: 3, Combining: true}, Hashing: true, PEs: 8,
		}, "rw.s")},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			want := runArtifact(t, fx.mk, nil)
			if len(want.trace) == 0 || len(want.metrics) == 0 {
				t.Fatal("serial run produced empty artifacts — probe or sampler not wired")
			}
			for _, c := range []chunked{1, 3, 8} {
				diffArtifact(t, int(c), want, runArtifact(t, fx.mk, c))
			}
		})
	}
}

func diffArtifact(t *testing.T, chunk int, want, got artifact) {
	t.Helper()
	cmp := func(kind string, w, g []byte) {
		if !bytes.Equal(w, g) {
			i := 0
			for i < len(w) && i < len(g) && w[i] == g[i] {
				i++
			}
			lo := max(i-80, 0)
			hiW, hiG := min(i+80, len(w)), min(i+80, len(g))
			t.Errorf("chunk=%d: %s differs at byte %d (serial %d bytes, chunked %d bytes)\n serial  ...%q\n chunked ...%q",
				chunk, kind, i, len(w), len(g), w[lo:hiW], g[lo:hiG])
		}
	}
	cmp("trace", want.trace, got.trace)
	cmp("metrics", want.metrics, got.metrics)
	cmp("spans", want.spans, got.spans)
	cmp("flight", want.flight, got.flight)
	cmp("report", want.report, got.report)
	cmp("final state", want.state, got.state)
}

// TestLateObserveEngineEquivalence attaches the consumers after the
// machine has been stepping: from then on they must get, under an engine
// that cuts every phase into single units, exactly the events of an
// engine.Serial run that did the same. The PEs and their caches reach
// the consumers through what Observe wires whenever it is called, not
// through what the first Step saw.
func TestLateObserveEngineEquivalence(t *testing.T) {
	run := func(eng engine.Engine) []byte {
		m, pcfg := cachedLeg(false)(t)
		if eng != nil {
			m.SetEngine(eng)
		}
		for i := 0; i < 60; i++ {
			m.Step()
		}
		rec := obs.NewRecorder(1 << 20)
		tr := reqtrace.New(reqtrace.Config{Rate: 1, Ring: 1 << 14})
		pf := prof.New(pcfg)
		m.Observe(prof.Observers{Probe: rec, Tracer: tr, Profiler: pf})
		m.MustRun(5_000_000)
		var b bytes.Buffer
		for _, write := range []func(io.Writer) error{
			func(w io.Writer) error { return obs.WriteChromeTrace(w, rec.Events()) },
			tr.WriteSpansJSONL, pf.WriteJSONL,
		} {
			if err := write(&b); err != nil {
				t.Fatal(err)
			}
		}
		kinds := map[obs.Kind]bool{}
		for _, ev := range rec.Events() {
			kinds[ev.Kind] = true
		}
		if !kinds[obs.KindStallBegin] || !kinds[obs.KindCacheHit] || tr.Completed() == 0 {
			t.Fatalf("engine %T: run proves nothing: kinds %v, %d spans", eng, kinds, tr.Completed())
		}
		return b.Bytes()
	}
	if serial, cut := run(nil), run(chunked(1)); !bytes.Equal(serial, cut) {
		t.Errorf("exports of a late-attached run differ between engine.Serial and single-unit ranges (%d vs %d bytes)", len(serial), len(cut))
	}
}
