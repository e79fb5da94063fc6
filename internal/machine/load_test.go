package machine_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/prof"
)

func loadCfg(pes int) machine.Config {
	return machine.Config{
		Net:     network.Config{K: 2, Stages: 3, Combining: true},
		Hashing: true,
		PEs:     pes,
	}
}

// Load with linting runs the paper's queue program end to end: the lint
// passes it clean and the machine produces the known tally.
func TestLoadRunsCleanProgram(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "asm", "queue.s"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isa.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	m, cores, err := machine.Load(loadCfg(8), prog, machine.LoadOptions{Lint: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cores) != 8 {
		t.Fatalf("got %d cores, want 8", len(cores))
	}
	if _, done := m.Run(10_000_000); !done {
		t.Fatal("queue.s did not halt")
	}
	// sum(100+pe) for 8 PEs.
	if got := m.ReadShared(900); got != 828 {
		t.Fatalf("queue tally M[900] = %d, want 828", got)
	}
}

// A program the guest lint flags must not build a machine: Load returns
// a *LintError carrying the findings.
func TestLoadRejectsRacyProgram(t *testing.T) {
	prog := isa.MustAssemble(`
        rdpe r1
        li   r2, 500
        sts  r1, 0(r2)
        lds  r3, 0(r2)
        halt
`)
	m, _, err := machine.Load(loadCfg(4), prog, machine.LoadOptions{Lint: true})
	if err == nil {
		t.Fatal("want a lint error, got none")
	}
	if m != nil {
		t.Error("machine must be nil when the lint rejects the program")
	}
	var le *machine.LintError
	if !errors.As(err, &le) {
		t.Fatalf("want *machine.LintError, got %T: %v", err, err)
	}
	if len(le.Findings) == 0 {
		t.Fatal("LintError with no findings")
	}
	for _, f := range le.Findings {
		if f.Rule != "shared-race" {
			t.Errorf("unexpected rule %q", f.Rule)
		}
	}

	// Without the preflight the same program loads fine (it is legal to
	// run; the lint is opt-in).
	if _, _, err := machine.Load(loadCfg(4), prog, machine.LoadOptions{}); err != nil {
		t.Fatalf("unlinted load failed: %v", err)
	}
}

// TestLoadDefaultsAndRefuses: Load gives a config that leaves pes to
// default one core per network port, and reports an invalid config as
// Validate's error instead of panicking.
func TestLoadDefaultsAndRefuses(t *testing.T) {
	prog := isa.MustAssemble("halt")
	cfg := loadCfg(0)
	m, cores, err := machine.Load(cfg, prog, machine.LoadOptions{})
	if err != nil || m.NumPE() != cfg.Net.Ports() || len(cores) != cfg.Net.Ports() {
		t.Fatalf("default pes: err %v, %d PEs and %d cores, want %d", err, m.NumPE(), len(cores), cfg.Net.Ports())
	}
	cfg.PEs = -1
	if _, _, err := machine.Load(cfg, prog, machine.LoadOptions{}); err == nil || !strings.Contains(err.Error(), "pes = -1") {
		t.Fatalf("pes = -1: err %v, want Validate's pes error", err)
	}
}

func TestLoadProgramsLengthMismatch(t *testing.T) {
	prog := isa.MustAssemble("halt")
	if _, _, err := machine.LoadPrograms(loadCfg(4), []*isa.Program{prog}, machine.LoadOptions{}); err == nil {
		t.Fatal("want an error for 1 program on 4 PEs")
	}
}

// runTraced loads and runs queue.s with a recorder attached and returns
// the full event stream and the final tally word.
func runTraced(t *testing.T) ([]obs.Event, int64) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "asm", "queue.s"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isa.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := machine.Load(loadCfg(8), prog, machine.LoadOptions{Lint: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(1 << 18)
	m.Observe(prof.Observers{Probe: rec})
	if _, done := m.Run(10_000_000); !done {
		t.Fatal("queue.s did not halt")
	}
	return rec.Events(), m.ReadShared(900)
}

// TestRepeatRunDeterminism runs the same configuration twice end to end:
// the complete probe event streams must be identical, event for event —
// the property detstate (cmd/ultravet) polices statically.
func TestRepeatRunDeterminism(t *testing.T) {
	ev1, tally1 := runTraced(t)
	ev2, tally2 := runTraced(t)
	if tally1 != tally2 {
		t.Fatalf("tallies differ across identical runs: %d vs %d", tally1, tally2)
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("event %d differs:\n run1 %+v\n run2 %+v", i, ev1[i], ev2[i])
		}
	}
	if len(ev1) == 0 {
		t.Fatal("no events recorded")
	}
}
