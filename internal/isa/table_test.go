package isa

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/memory"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/pe"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestInterlockGolden pins the register interlock (§3.5): for every
// opcode and two canonical instructions — registers 1, 2, 3 in Rd, Rs,
// Rt, and all three fields zero (r0 locks like any register) — which
// single locked register of either file stalls the instruction. A wrong
// entry moves cycle counts without any error; testdata/interlock.golden
// was generated from the hand-written per-opcode switch.
func TestInterlockGolden(t *testing.T) {
	var got bytes.Buffer
	for op := Op(0); op < numOps; op++ {
		for _, in := range []Instr{{Op: op, Rd: 1, Rs: 2, Rt: 3}, {Op: op}} {
			fmt.Fprintf(&got, "%-5s rd=%d rs=%d rt=%d:", op, in.Rd, in.Rs, in.Rt)
			for r := 0; r < NumRegs; r++ {
				if stalls(in, r, false) {
					fmt.Fprintf(&got, " r%d", r)
				}
			}
			for r := 0; r < NumRegs; r++ {
				if stalls(in, r, true) {
					fmt.Fprintf(&got, " f%d", r)
				}
			}
			got.WriteByte('\n')
		}
	}
	golden := filepath.Join("testdata", "interlock.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("drifted from %s (run with -update if intended):\ngot:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}

// stalls reports whether a core whose only locked register is r (of the
// float file when float) would stall on in.
func stalls(in Instr, r int, float bool) bool {
	c := NewCore(&Program{}, 1)
	if float {
		c.lockF = 1 << uint(r)
	} else {
		c.lockI = 1 << uint(r)
	}
	return c.locked(&in)
}

// canonical builds one instruction of op from its row's operand list:
// r1/f1 in Rd, r2/f2 in Rs, r3/f3 in Rt, immediate 4 (a valid private
// address), float immediate 2.5, label pc 0; unnamed fields stay zero,
// as the assembler leaves them.
func canonical(op Op) Instr {
	in := Instr{Op: op}
	for _, o := range rows[op].args {
		switch o {
		case oRd, oFd:
			in.Rd = 1
		case oRs, oFs:
			in.Rs = 2
		case oRt, oFt:
			in.Rt = 3
		case oImm:
			in.Imm = 4
		case oFImm:
			in.FImm = 2.5
		case oMem:
			in.Imm, in.Rs = 4, 2
		case oLabel:
			in.Imm = 0
		}
	}
	return in
}

// TestEveryOpcode enumerates the instruction table, so that an opcode
// cannot be half-added: every row has a mnemonic the assembler finds,
// Regs.Exec executes exactly the register-only class, and one Core.Tick
// of the canonical instruction reaches a case (an opcode with a row but
// no semantics panics "unhandled opcode" here, instead of mis-counting
// cycles somewhere). TestDisassembleAllOpcodeForms round-trips the same
// enumeration through the assembler; mc.TestStepEveryOpcode is the model
// checker's half.
func TestEveryOpcode(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if rows[op].name == "" {
			t.Fatalf("opcode %d has no row in the instruction table", op)
		}
		t.Run(op.String(), func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%v", r)
				}
			}()
			if got, ok := opByName(op.String()); !ok || got != op {
				t.Errorf("opByName(%q) = %v, %v", op.String(), got, ok)
			}
			in := canonical(op)
			if _, ok := new(Regs).Exec(&in, 0); ok != (op.Class() == ClassReg) {
				t.Errorf("Regs.Exec ok = %v, but the row's class is %d", ok, op.Class())
			}
			core := NewCoreWithCache(&Program{Instrs: []Instr{in}}, 16, cache.Config{Sets: 1, Ways: 1, BlockWords: 1})
			accept := func(msg.Request) bool { return true }
			p := pe.New(0, core, memory.Interleave{N: 1}, accept, 4)
			p.Tick(0, 1)
			if st := p.Stats(); !p.Halted() && st.Instructions.Value() == 0 && st.IdleCycles.Value() == 0 {
				t.Error("one tick neither executed, stalled nor halted")
			}
		})
	}
}
