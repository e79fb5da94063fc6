package isagen

import (
	"math/rand"
	"reflect"
	"testing"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/isa"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
)

// halts reports whether prog halts within 100 000 cycles on pes PEs.
func halts(prog *isa.Program, pes int) bool {
	m, _, _ := machine.Load(machine.Config{Net: network.Config{K: 2, Stages: 2, Combining: true}, PEs: pes,
		Hashing: true}, prog, machine.LoadOptions{LocalWords: 16, Cache: &cache.Config{Sets: 2, Ways: 1, BlockWords: 2}})
	_, done := m.Run(100_000)
	return done
}

// TestGenerate: every program survives
// Disassemble -> Assemble unchanged and halts on 1, 2 and 3 PEs. And a
// synthetic failure, "on two PEs or more, some faa and a later lds name
// the same word", shrinks to those two and the window registers' prologue
// on two PEs, still failing and still halting.
func TestGenerate(t *testing.T) {
	spec := Spec{PEs: 3, Private: 16, Shared: [2]int64{0, 16}, Cached: [2]int64{32, 48}, Body: 48}
	fails := func(p *isa.Program, pes int) bool {
		faa := map[[2]int64]bool{} // by base register and offset
		for _, in := range p.Instrs {
			at := [2]int64{int64(in.Rs), in.Imm}
			if faa[at] = faa[at] || in.Op == isa.FAA; in.Op == isa.LDS && faa[at] && pes >= 2 {
				return true
			}
		}
		return false
	}
	shrunk := false
	for seed := range int64(1000) {
		prog, pes := Generate(spec, rand.New(rand.NewSource(seed)))
		back, err := isa.Assemble(prog.Disassemble())
		if err != nil || !reflect.DeepEqual(back.Instrs, prog.Instrs) || !halts(prog, 1) || !halts(prog, 2) || !halts(prog, 3) {
			t.Fatalf("seed %d: %v; no round trip or no halt:\n%s", seed, err, prog.Disassemble())
		}
		if pes == 3 && !shrunk && fails(prog, pes) {
			small, pes := Shrink(prog, pes, fails) // at most 6 window registers, 6 body instructions and the halt
			if len(small.Instrs) > 6+6+1 || pes != 2 || !fails(small, pes) || !halts(small, pes) {
				t.Fatalf("seed %d shrinks to %d instructions on %d PEs:\n%s", seed, len(small.Instrs), pes, small.Disassemble())
			}
			shrunk = true
		}
	}
	if !shrunk {
		t.Fatal("no program fails")
	}
}
