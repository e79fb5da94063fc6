package mc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/isa/isagen"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
)

// soloChecker builds a checker for prog on one PE with no properties:
// step is then the checker's sequential semantics and nothing else.
func soloChecker(prog *isa.Program) *checker {
	anno := &Annotations{Asserts: map[int][]Prop{}, Regions: map[string]Region{}}
	return newChecker(prog, anno, "", Options{PEs: 1, MaxStates: 1, MaxSpinSteps: 1})
}

// TestStepEveryOpcode is the checker's half of isa.TestEveryOpcode: one
// step on an instruction of every opcode in the table reaches a case
// (a new opcode with a row but no semantics here panics "unhandled
// opcode" in this test, not in some later exploration).
func TestStepEveryOpcode(t *testing.T) {
	for _, op := range isagen.Ops() {
		t.Run(op.String(), func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%v", r)
				}
			}()
			prog := &isa.Program{Instrs: []isa.Instr{{Op: isa.NOP}, {Op: op, Rd: 1, Rs: 2, Rt: 3, Imm: 4}}}
			s := newState(1)
			s.pes[0].pc = 1
			soloChecker(prog).step(s, 0)
			if pe := &s.pes[0]; pe.pc == 1 && !pe.halted {
				t.Error("one step neither moved the pc nor halted")
			}
		})
	}
}

// FuzzDifferentialAgainstCore keeps the checker's second opinion where
// it is one. Register-only instructions have a single definition now
// (isa.Regs.Exec); private memory, shared memory, the fetch-and-phi
// family and the cache are still written twice, here in step and in
// isa.Core + internal/cache + the machine. Generated programs (the seed
// corpus: seeds 0..255) run to their halt on both — one PE, so one
// interleaving — and must agree on every register of both files, private
// memory and shared memory. A failing program is shrunk before it is
// printed.
func FuzzDifferentialAgainstCore(f *testing.F) {
	for seed := range int64(256) {
		f.Add(seed)
	}
	spec := isagen.Spec{PEs: 1, Private: 8, Shared: [2]int64{4096, 4104}, Cached: [2]int64{4096, 4104}, Body: 96}
	f.Fuzz(func(t *testing.T, seed int64) {
		if prog, _ := isagen.Generate(spec, rand.New(rand.NewSource(seed))); diffCore(prog, spec) != "" {
			prog, _ = isagen.Shrink(prog, 1, func(p *isa.Program, _ int) bool { return diffCore(p, spec) != "" })
			t.Fatalf("seed %d: %s\nshrunk:\n%s", seed, diffCore(prog, spec), prog.Disassemble())
		}
	})
}

// diffCore runs prog to its halt on the model and on the core, and
// reports the first difference, or "". After every model step the state
// must also be canonical: each word set strictly ascending by address,
// and encoding it, decoding that and encoding again gives the same bytes.
func diffCore(prog *isa.Program, spec isagen.Spec) string {
	// The model: step until the final halt is next (halting wipes the
	// registers; dirty cached words are dropped on both sides).
	c, s := soloChecker(prog), newState(1)
	pe := &s.pes[0]
	for steps := 0; pe.pc != len(prog.Instrs)-1; steps++ {
		if steps > len(prog.Instrs) {
			return fmt.Sprintf("the model has not reached the halt after %d steps (pc %d)", steps, pe.pc)
		}
		c.step(s, 0)
		if !ascending(s.mem) || !ascending(pe.cache) || !ascending(pe.local) {
			return fmt.Sprintf("a word set is out of address order after step %d (pc %d)", steps, pe.pc)
		}
		enc, d := bytes.Clone(c.encode(s)), &state{}
		if c.decode(enc, d); !bytes.Equal(c.encode(d), enc) {
			return fmt.Sprintf("encode(decode(encode(s))) != encode(s) after step %d (pc %d)", steps, pe.pc)
		}
	}

	// The machine: the replay harness's configuration, ideal memory.
	cfg := machine.Config{Net: network.Config{K: 2, Stages: 1, Combining: true}, PEs: 1, Hashing: true, IdealMemory: true}
	m, cores, err := machine.Load(cfg, prog, machine.LoadOptions{LocalWords: spec.Private, Cache: &wordCache})
	if err != nil {
		return fmt.Sprintf("load: %v", err)
	}
	if _, done := m.Run(1 << 16); !done {
		return fmt.Sprintf("the machine has not halted after %d cycles (pc %d)", m.Cycles(), cores[0].PC())
	}

	core := cores[0]
	for r := range isa.NumRegs {
		if got, want := core.Reg(r), pe.I[r]; got != want {
			return fmt.Sprintf("r%d = %d on the core, %d in the model", r, got, want)
		}
		if got, want := core.FReg(r), pe.F[r]; math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Sprintf("f%d = %v on the core, %v in the model", r, got, want)
		}
	}
	for a := range spec.Private {
		if got, want := core.Local(a), pe.local.value(int64(a)); got != want {
			return fmt.Sprintf("private word %d = %d on the core, %d in the model", a, got, want)
		}
	}
	for a := spec.Shared[0]; a < spec.Shared[1]; a++ {
		if got, want := m.ReadShared(a), s.mem.value(a); got != want {
			return fmt.Sprintf("M[%d] = %d on the machine, %d in the model", a, got, want)
		}
	}
	return ""
}

// ascending reports whether ws's addresses strictly ascend.
func ascending[V any](ws words[V]) bool {
	for i := 1; i < len(ws); i++ {
		if ws[i-1].addr >= ws[i].addr {
			return false
		}
	}
	return true
}
