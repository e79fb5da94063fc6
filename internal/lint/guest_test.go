package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/lint"
)

func assemble(t *testing.T, path string) *isa.Program {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isa.Assemble(string(src))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return prog
}

// The shipped example programs coordinate exclusively through
// fetch-and-add cells, spin flags and release/acquire chains: the guest
// lint must pass them clean at several PE counts.
func TestExamplesLintClean(t *testing.T) {
	for _, name := range []string{"queue.s", "barrier.s", "rw.s", "dotproduct.s", "tickets.s"} {
		prog := assemble(t, filepath.Join("..", "..", "examples", "asm", name))
		for _, pes := range []int{2, 4, 8} {
			if fs := lint.Program(prog, lint.Options{PEs: pes}); len(fs) != 0 {
				for _, f := range fs {
					t.Errorf("%s pes=%d: unexpected finding: %s", name, pes, f)
				}
			}
		}
	}
}

// The examples must also lint clean on a multi-copy network, where the
// late-flush rule is live (tickets.s and rw.s coordinate purely through
// fetch-and-add cells and never dirty a write-back line).
func TestExamplesLintCleanMultiCopy(t *testing.T) {
	for _, name := range []string{"queue.s", "barrier.s", "rw.s", "dotproduct.s", "tickets.s"} {
		prog := assemble(t, filepath.Join("..", "..", "examples", "asm", name))
		for _, copies := range []int{2, 3} {
			opts := lint.Options{PEs: 4, Copies: copies}
			if fs := lint.Program(prog, opts); len(fs) != 0 {
				for _, f := range fs {
					t.Errorf("%s copies=%d: unexpected finding: %s", name, copies, f)
				}
			}
		}
	}
}

// lateflush.s releases its ready flag before flushing the dirty data
// line: the late-flush rule must fire on a multi-copy network and stay
// quiet on a single-copy one (per-PE FIFO keeps the write-back ahead of
// the consumers), and the present-but-late cflu must keep the
// unflushed-write rule quiet everywhere.
func TestLateFlushFixture(t *testing.T) {
	prog := assemble(t, filepath.Join("testdata", "lateflush.s"))

	fs := lint.Program(prog, lint.Options{PEs: 4, Copies: 2})
	var late bool
	for _, f := range fs {
		if f.Rule != "late-flush" {
			t.Errorf("lateflush.s copies=2: unexpected rule %q: %s", f.Rule, f)
			continue
		}
		late = true
		if f.PE != 0 || f.Addr != 100 {
			t.Errorf("lateflush.s: want the finding on PE 0's store to M[100]: %s", f)
		}
	}
	if !late {
		t.Errorf("lateflush.s copies=2: expected a late-flush finding, got %v", fs)
	}

	if fs := lint.Program(prog, lint.Options{PEs: 4, Copies: 1}); len(fs) != 0 {
		t.Errorf("lateflush.s copies=1: want clean (FIFO network), got %v", fs)
	}
}

// racy.s stores and loads one shared word from every PE with no
// coordination: the race rule must fire on both the load and the
// competing stores, and the cache rules must stay quiet (no cached ops).
func TestRacyFixtureFlagged(t *testing.T) {
	prog := assemble(t, filepath.Join("testdata", "racy.s"))
	fs := lint.Program(prog, lint.Options{PEs: 4})
	if len(fs) == 0 {
		t.Fatal("racy.s: expected shared-race findings, got none")
	}
	var store, load bool
	for _, f := range fs {
		if f.Rule != "shared-race" {
			t.Errorf("racy.s: unexpected rule %q: %s", f.Rule, f)
		}
		if f.Addr != 500 {
			t.Errorf("racy.s: finding on M[%d], want M[500]: %s", f.Addr, f)
		}
		switch f.PC {
		case 2:
			store = true
		case 3:
			load = true
		}
	}
	if !store || !load {
		t.Errorf("racy.s: want findings on both the store (pc 2) and the load (pc 3); got %v", fs)
	}
}

// stale.s writes through one PE's write-back cache with no cflu and
// spins on cached loads with no crel: both software-coherence rules must
// fire, and a single PE (nobody to race with) must lint clean.
func TestStaleFixtureFlagged(t *testing.T) {
	prog := assemble(t, filepath.Join("testdata", "stale.s"))
	fs := lint.Program(prog, lint.Options{PEs: 4})
	rules := map[string]int{}
	for _, f := range fs {
		rules[f.Rule]++
		if f.Addr != 100 {
			t.Errorf("stale.s: finding on M[%d], want M[100]: %s", f.Addr, f)
		}
	}
	if rules["stale-read"] == 0 {
		t.Errorf("stale.s: expected a stale-read finding, got %v", fs)
	}
	if rules["unflushed-write"] == 0 {
		t.Errorf("stale.s: expected an unflushed-write finding, got %v", fs)
	}
	if rules["shared-race"] != 0 {
		t.Errorf("stale.s: cached accesses must not trip the race rule: %v", fs)
	}

	if fs := lint.Program(prog, lint.Options{PEs: 1}); len(fs) != 0 {
		t.Errorf("stale.s pes=1: no foreign PEs, want clean, got %v", fs)
	}
}

// A flag handoff through a plain spin cell orders a known-address data
// word: the release/acquire chain exemption must recognize it, and
// removing the handoff must re-expose the race.
func TestReleaseAcquireChain(t *testing.T) {
	clean := `
        rdpe r1
        li   r2, 50         ; data word
        li   r3, 60         ; flag cell
        li   r4, 1
        bne  r1, r0, rd
        sts  r4, 0(r2)      ; producer: data...
        faa  r5, 0(r3), r4  ; ...then release the flag
        halt
rd:     lds  r6, 0(r3)      ; consumer: acquire the flag
        beq  r6, r0, rd
        lds  r7, 0(r2)      ; then read the data
        halt
`
	prog, err := isa.Assemble(clean)
	if err != nil {
		t.Fatal(err)
	}
	if fs := lint.Program(prog, lint.Options{PEs: 2}); len(fs) != 0 {
		t.Errorf("handoff: want clean via release/acquire chain, got %v", fs)
	}

	racy := `
        rdpe r1
        li   r2, 50
        li   r4, 1
        bne  r1, r0, rd
        sts  r4, 0(r2)      ; producer stores...
        halt
rd:     lds  r7, 0(r2)      ; ...consumer reads with nothing in between
        halt
`
	prog, err = isa.Assemble(racy)
	if err != nil {
		t.Fatal(err)
	}
	fs := lint.Program(prog, lint.Options{PEs: 2})
	if len(fs) == 0 {
		t.Error("unordered handoff: want a shared-race finding, got none")
	}
	for _, f := range fs {
		if f.Rule != "shared-race" || f.Addr != 50 {
			t.Errorf("unordered handoff: unexpected finding %s", f)
		}
	}
}

// A crel between cached re-reads of a foreign-written word satisfies the
// stale-read rule.
func TestRelBlocksStaleRead(t *testing.T) {
	src := `
        rdpe r1
        li   r2, 100
        li   r8, 101
        bne  r1, r0, rd
        li   r3, 7
        csts r3, 0(r2)
        cflu r2, r8         ; write back the dirty word
        halt
rd:     clds r4, 0(r2)      ; cached spin with an invalidate each trip
        crel r2, r8
        beq  r4, r0, rd
        halt
`
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if fs := lint.Program(prog, lint.Options{PEs: 2}); len(fs) != 0 {
		t.Errorf("fenced cached spin: want clean, got %v", fs)
	}
}
