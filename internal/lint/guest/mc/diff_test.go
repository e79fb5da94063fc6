package mc

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
)

// allOps enumerates the opcode space: isa keeps its size to itself, but
// an Op outside the instruction table prints as "op(N)".
func allOps() []isa.Op {
	var ops []isa.Op
	for op := isa.Op(0); !strings.HasPrefix(op.String(), "op("); op++ {
		ops = append(ops, op)
	}
	return ops
}

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
	for _, op := range allOps() {
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

// The generated programs of TestDifferentialAgainstCore. Four registers
// are set up by a prologue and never written again, so that every
// memory operand the generator emits stays inside the two windows:
// private words [0, genLocal) and shared words [genShared, genShared+genWindow).
const (
	genLocal  = 8
	genShared = 4096
	genWindow = 8
	genBody   = 48 // random instructions per program

	rLocalMid  = 28 // = genLocal/2
	rSharedMid = 29 // = genShared + 4
	rSharedLo  = 30 // = genShared
	rSharedHi  = 31 // = genShared + genWindow
	genScratch = 28 // destinations are r0..r27 (r0: the write is discarded)
)

// generate draws one program from the instruction table: every opcode
// of every class the checker and the core both execute — half the
// instructions from the classes that reach memory, half from the rest —
// with operands at random, except that branches and jumps go forward
// only (so every program halts), jumps through a register are left out
// (their target is data), and memory operands are built from the
// prologue's registers. The prologue also gives half the scratch
// registers of each file a value, so that most operands differ.
func generate(rng *rand.Rand) *isa.Program {
	var pools [2][]isa.Op // register-only and PE-identity; memory
	for _, op := range allOps() {
		probe := isa.Program{Instrs: []isa.Instr{{Op: op}}}
		switch _, exact := probe.Succs(0); {
		case !exact || op.Class() == isa.ClassHalt:
		case op.Class() == isa.ClassReg || op.Class() == isa.ClassPE:
			pools[0] = append(pools[0], op)
		default:
			pools[1] = append(pools[1], op)
		}
	}
	p := &isa.Program{Instrs: []isa.Instr{
		{Op: isa.LI, Rd: rLocalMid, Imm: genLocal / 2},
		{Op: isa.LI, Rd: rSharedMid, Imm: genShared + 4},
		{Op: isa.LI, Rd: rSharedLo, Imm: genShared},
		{Op: isa.LI, Rd: rSharedHi, Imm: genShared + genWindow},
	}}
	for r := 1; r < genScratch; r += 2 {
		p.Instrs = append(p.Instrs,
			isa.Instr{Op: isa.LI, Rd: r, Imm: rng.Int63n(1<<20) - 1<<19},
			isa.Instr{Op: isa.FLI, Rd: r, FImm: rng.NormFloat64() * 100})
	}
	end := len(p.Instrs) + genBody // the pc of the final halt
	for pc := len(p.Instrs); pc < end; pc++ {
		pool := pools[rng.Intn(2)]
		in := isa.Instr{
			Op: pool[rng.Intn(len(pool))],
			Rd: rng.Intn(genScratch), Rs: rng.Intn(isa.NumRegs), Rt: rng.Intn(isa.NumRegs),
			Imm: rng.Int63n(64) - 16, FImm: float64(rng.Intn(64)-16) / 4,
		}
		switch in.Op.Class() {
		case isa.ClassReg:
			// A branch or jump names its target in Imm: Succs lists it.
			probe := isa.Program{Instrs: []isa.Instr{{Op: in.Op, Imm: -1}}}
			if succs, _ := probe.Succs(0); succs[len(succs)-1] == -1 {
				in.Imm = int64(min(pc+1+rng.Intn(4), end)) // a short hop: most of the body runs
			}
		case isa.ClassPrivate:
			word := rng.Int63n(genLocal)
			if in.Rs = 0; rng.Intn(2) == 0 {
				in.Rs, word = rLocalMid, word-genLocal/2
			}
			in.Imm = word
		case isa.ClassShared, isa.ClassCached:
			word := rng.Int63n(genWindow)
			switch rng.Intn(3) {
			case 0:
				in.Rs, in.Imm = 0, genShared+word
			case 1:
				in.Rs, in.Imm = rSharedLo, word
			case 2:
				in.Rs, in.Imm = rSharedMid, word-4
			}
		case isa.ClassCacheRange:
			in.Rs, in.Rt = rSharedMid+rng.Intn(3), rSharedMid+rng.Intn(3)
		}
		p.Instrs = append(p.Instrs, in)
	}
	p.Instrs = append(p.Instrs, isa.Instr{Op: isa.HALT})
	return p
}

// TestDifferentialAgainstCore keeps the checker's second opinion where it
// is one. Register-only instructions have a single definition now
// (isa.Regs.Exec); private memory, shared memory, the fetch-and-phi
// family and the cache are still written twice, here in step and in
// isa.Core + internal/cache + the machine. Generated programs run to
// their halt on both — one PE, so one interleaving — and must agree on
// every register of both files, private memory and shared memory.
func TestDifferentialAgainstCore(t *testing.T) {
	const programs = 256
	for seed := int64(0); seed < programs; seed++ {
		prog := generate(rand.New(rand.NewSource(seed)))
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d: %s\n%s", seed, fmt.Sprintf(format, args...), prog.Disassemble())
		}

		// The model: step until the final halt is next (halting wipes
		// the registers; dirty cached words are dropped on both sides).
		c := soloChecker(prog)
		s := newState(1)
		pe := &s.pes[0]
		for steps := 0; pe.pc != len(prog.Instrs)-1; steps++ {
			if steps > len(prog.Instrs) {
				fail("the model has not reached the halt after %d steps (pc %d)", steps, pe.pc)
			}
			c.step(s, 0)
		}

		// The machine: the replay harness's configuration, ideal memory.
		cfg := machine.Config{
			Net: network.Config{K: 2, Stages: 1, Combining: true},
			PEs: 1, Hashing: true, IdealMemory: true,
		}
		m, cores, err := machine.Load(cfg, prog, machine.LoadOptions{LocalWords: genLocal, Cache: &wordCache})
		if err != nil {
			fail("load: %v", err)
		}
		if _, done := m.Run(1 << 16); !done {
			fail("the machine has not halted after %d cycles (pc %d)", m.Cycles(), cores[0].PC())
		}

		core := cores[0]
		for r := 0; r < isa.NumRegs; r++ {
			if got, want := core.Reg(r), pe.I[r]; got != want {
				fail("r%d = %d on the core, %d in the model", r, got, want)
			}
			if got, want := core.FReg(r), pe.F[r]; math.Float64bits(got) != math.Float64bits(want) {
				fail("f%d = %v on the core, %v in the model", r, got, want)
			}
		}
		for a := 0; a < genLocal; a++ {
			if got, want := core.Local(a), pe.local[int64(a)]; got != want {
				fail("private word %d = %d on the core, %d in the model", a, got, want)
			}
		}
		for a := int64(genShared); a < genShared+genWindow; a++ {
			if got, want := m.ReadShared(a), s.mem[a]; got != want {
				fail("M[%d] = %d on the machine, %d in the model", a, got, want)
			}
		}
	}
}
