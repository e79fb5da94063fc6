package prof

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/obs"
)

// rawSample is one sample as `go tool pprof -raw` prints it.
type rawSample struct {
	value int64
	locs  []string // location ids, leaf first
	state string
}

// readRaw parses the output of `go tool pprof -raw -symbolize=none`: the
// samples in order, and each location's address and function by id.
func readRaw(out string) (samples []rawSample, addr, fn map[string]string, err error) {
	addr, fn = map[string]string{}, map[string]string{}
	section := ""
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		switch {
		case l == "Samples:" || l == "Locations" || l == "Mappings":
			section = l
		case len(f) == 0:
		case section == "Samples:" && strings.HasSuffix(f[0], ":"):
			v, err := strconv.ParseInt(strings.TrimSuffix(f[0], ":"), 10, 64)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("sample line %q: %v", l, err)
			}
			samples = append(samples, rawSample{value: v, locs: f[1:]})
		case section == "Samples:" && strings.HasPrefix(f[0], "state:[") && len(samples) > 0:
			samples[len(samples)-1].state = strings.TrimSuffix(strings.TrimPrefix(f[0], "state:["), "]")
		case section == "Locations" && len(f) >= 4:
			id := strings.TrimSuffix(f[0], ":")
			addr[id], fn[id] = f[1], f[3]
		}
	}
	return samples, addr, fn, nil
}

// TestStockPprofReadsExport: stock pprof is the referee of the pprof
// export. Each profile below is written by WritePprof and read back by
// `go tool pprof -raw -symbolize=none`, and every sample it prints must
// carry the value, state label, leaf function, leaf address (pc+1) and
// stack depth of the merged sample it was written from, in the order
// they were written. The go command must be on PATH: without it the test
// fails rather than skips.
func TestStockPprofReadsExport(t *testing.T) {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go tool pprof reads the export: %v", err)
	}
	toy := isa.MustAssemble(toySrc)

	// scripted spells two PEs' cycles on toySrc, three bytes a cycle
	// (PE, pc, state): pcs 6 and 7 lie past the program's end.
	scripted := func(script []byte) *Profiler {
		p := New(Config{PEs: 2, Programs: []*isa.Program{toy}, File: "toy.s"})
		for i := 0; i+2 < len(script); i += 3 {
			p.ProfCycle(int(script[i]%2), int(script[i+1]%8), obs.ProfState(script[i+2]%uint8(obs.NumProfStates)))
		}
		return p
	}

	// everyState: PE 0 calls work (a jal, so its samples carry a call
	// stack) and PE 1 spends a cycle or more in each of the six states.
	everyState := New(Config{PEs: 2, Programs: []*isa.Program{toy}, File: "toy.s"})
	everyState.ProfCycle(0, 0, obs.ProfExecute)
	everyState.ProfCycle(0, 1, obs.ProfExecute)
	for i := 0; i < 3; i++ {
		everyState.ProfCycle(0, 3, obs.ProfMemWait)
		everyState.ProfCycle(0, 4, obs.ProfExecute)
	}
	everyState.ProfCycle(0, 5, obs.ProfExecute)
	everyState.ProfCycle(0, 2, obs.ProfHalted)
	for s := range obs.NumProfStates {
		for range int(s) + 1 {
			everyState.ProfCycle(1, int(s), s)
		}
	}

	// wide: one PE over a 64-instruction program in four labeled spans,
	// pc i held i+1 cycles in state i mod 6: 64 samples.
	var src strings.Builder
	for i := range 64 {
		if i%16 == 0 {
			fmt.Fprintf(&src, "f%d:\n", i/16)
		}
		src.WriteString("        addi r1, r1, 1\n")
	}
	wide := New(Config{PEs: 1, Programs: []*isa.Program{isa.MustAssemble(src.String())}, File: "wide.s"})
	for pc := range 64 {
		for range pc + 1 {
			wide.ProfCycle(0, pc, obs.ProfState(pc%int(obs.NumProfStates)))
		}
	}

	cases := []struct {
		name string
		p    *Profiler
	}{
		{"length-wraps", scripted([]byte{0x0a, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})},
		{"fixed32-cut", scripted([]byte{0x0d, 0x01, 0x02})},
		{"fixed64-cut", scripted([]byte{0x09, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})},
		{"six-cycles", scripted([]byte{0, 0, 0, 0, 1, 0, 0, 3, 0, 0, 4, 0, 1, 2, 5, 1, 6, 2})},
		{"every-state", everyState},
		{"wide", wide},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.p.Merged()
			path := filepath.Join(t.TempDir(), "p.pb.gz")
			b, err := tc.p.PprofBytes()
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(goCmd, "tool", "pprof", "-raw", "-symbolize=none", path)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("go tool pprof: %v\n%s", err, stderr.String())
			}
			got, addr, fn, err := readRaw(string(out))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(m.samples) {
				t.Fatalf("pprof read %d samples, %d were written:\n%s", len(got), len(m.samples), out)
			}
			var total int64
			for i, g := range got {
				w := &m.samples[i]
				total += g.value
				leaf := ""
				if len(g.locs) > 0 {
					leaf = g.locs[0]
				}
				if g.value != w.cycles || g.state != w.state.String() || fn[leaf] != m.funcAt(w.pc, w.state) ||
					addr[leaf] != fmt.Sprintf("%#x", w.pc+1) || len(g.locs) != 1+len(w.stack) {
					t.Errorf("sample %d: pprof read %d cycles, state %q, leaf %s at %s, depth %d; "+
						"written %d cycles, state %s, leaf %s at pc %d, depth %d",
						i, g.value, g.state, fn[leaf], addr[leaf], len(g.locs),
						w.cycles, w.state, m.funcAt(w.pc, w.state), w.pc, 1+len(w.stack))
				}
			}
			if total != m.TotalCycles {
				t.Errorf("pprof read %d cycles, the profile holds %d", total, m.TotalCycles)
			}
		})
	}

	// The cases cover what they claim to.
	m := everyState.Merged()
	var seen [obs.NumProfStates]bool
	deepest := 0
	for _, s := range m.samples {
		seen[s.state] = true
		deepest = max(deepest, len(s.stack))
	}
	for s, ok := range seen {
		if !ok {
			t.Errorf("every-state profile has no %s sample", obs.ProfState(s))
		}
	}
	if deepest == 0 {
		t.Error("every-state profile has no call stack")
	}
	if n := len(wide.Merged().samples); n != 64 {
		t.Errorf("wide profile has %d samples, want 64", n)
	}
}
