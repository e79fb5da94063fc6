package isa

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDisassembleRoundTrip: assembling the disassembly reproduces the
// instruction stream exactly for every shipped example program.
func TestDisassembleRoundTrip(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "asm", "*.s"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		p1, err := Assemble(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		text := p1.Disassemble()
		p2, err := Assemble(text)
		if err != nil {
			t.Fatalf("%s: reassembling disassembly: %v\n%s", file, err, text)
		}
		if len(p1.Instrs) != len(p2.Instrs) {
			t.Fatalf("%s: instruction count %d -> %d", file, len(p1.Instrs), len(p2.Instrs))
		}
		for i := range p1.Instrs {
			if p1.Instrs[i] != p2.Instrs[i] {
				t.Fatalf("%s: instr %d differs: %v vs %v",
					file, i, p1.Instrs[i], p2.Instrs[i])
			}
		}
	}
}

// TestDisassembleAllOpcodeForms round-trips one canonical instruction of
// every opcode, enumerated from the instruction table (table_test.go),
// through assemble → disassemble → assemble.
func TestDisassembleAllOpcodeForms(t *testing.T) {
	src := "start:\n"
	for op := Op(0); op < numOps; op++ {
		src += "\t" + disasmInstr(canonical(op), map[int]string{0: "start"}) + "\n"
	}
	p1 := MustAssemble(src)
	p2, err := Assemble(p1.Disassemble())
	if err != nil {
		t.Fatalf("reassembly failed: %v\n%s", err, p1.Disassemble())
	}
	if len(p1.Instrs) != int(numOps) || len(p2.Instrs) != int(numOps) {
		t.Fatalf("%d opcodes assembled to %d instructions, reassembled to %d", numOps, len(p1.Instrs), len(p2.Instrs))
	}
	for i := range p1.Instrs {
		if p1.Instrs[i] != p2.Instrs[i] {
			t.Fatalf("instr %d: %v vs %v", i, p1.Instrs[i], p2.Instrs[i])
		}
		if want := canonical(Op(i)); p1.Instrs[i] != want {
			t.Fatalf("%v assembled to %+v, want %+v", Op(i), p1.Instrs[i], want)
		}
	}
	// Original labels survive.
	if !strings.Contains(p1.Disassemble(), "start:") {
		t.Fatal("original label lost in disassembly")
	}
}

func TestFormatFloatReparses(t *testing.T) {
	for _, v := range []float64{0, 1, -2.5, 1e-9, 12345.6789, 3,
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.MaxFloat64} {
		s := formatFloat(v)
		p, err := Assemble("fli f1, " + s + "\nhalt")
		if err != nil {
			t.Fatalf("%v formatted as %q: %v", v, s, err)
		}
		if got := p.Instrs[0].FImm; math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("%v formatted as %q reparsed to %v", v, s, got)
		}
	}
}

// TestCacheAndFetchPhiRoundTrip pins the assembly syntax and encodings
// of the software-coherence ops (clds/csts/cflu/crel, §3.4) and the full
// fetch-and-phi family (§3.5): assemble, disassemble, reassemble, and
// check both the instruction encodings and the rendered mnemonics.
func TestCacheAndFetchPhiRoundTrip(t *testing.T) {
	src := `
	li   r1, 64
	li   r2, 96
	li   r3, 5
	clds r4, 0(r1)
	clds r5, 3(r1)
	csts r3, 0(r1)
	csts r4, -2(r2)
	cflu r1, r2
	crel r1, r2
	faa  r6, 0(r1), r3
	fao  r7, 1(r1), r3
	fan  r8, 2(r1), r3
	fax  r9, 3(r1), r3
	fai  r10, 4(r1), r3
	swp  r11, 5(r1), r3
	halt
`
	p1 := MustAssemble(src)
	text := p1.Disassemble()
	p2, err := Assemble(text)
	if err != nil {
		t.Fatalf("reassembling disassembly: %v\n%s", err, text)
	}
	if len(p1.Instrs) != len(p2.Instrs) {
		t.Fatalf("instruction count %d -> %d", len(p1.Instrs), len(p2.Instrs))
	}
	for i := range p1.Instrs {
		if p1.Instrs[i] != p2.Instrs[i] {
			t.Fatalf("instr %d differs after round trip: %v vs %v",
				i, p1.Instrs[i], p2.Instrs[i])
		}
	}

	// Spot-check the encodings the round trip rode on.
	checks := []struct {
		pc int
		in Instr
	}{
		{3, Instr{Op: CLDS, Rd: 4, Rs: 1}},
		{4, Instr{Op: CLDS, Rd: 5, Rs: 1, Imm: 3}},
		{5, Instr{Op: CSTS, Rt: 3, Rs: 1}},
		{6, Instr{Op: CSTS, Rt: 4, Rs: 2, Imm: -2}},
		{7, Instr{Op: CFLU, Rs: 1, Rt: 2}},
		{8, Instr{Op: CREL, Rs: 1, Rt: 2}},
		{9, Instr{Op: FAA, Rd: 6, Rs: 1, Rt: 3}},
		{10, Instr{Op: FAO, Rd: 7, Rs: 1, Rt: 3, Imm: 1}},
		{11, Instr{Op: FAN, Rd: 8, Rs: 1, Rt: 3, Imm: 2}},
		{12, Instr{Op: FAX, Rd: 9, Rs: 1, Rt: 3, Imm: 3}},
		{13, Instr{Op: FAI, Rd: 10, Rs: 1, Rt: 3, Imm: 4}},
		{14, Instr{Op: SWP, Rd: 11, Rs: 1, Rt: 3, Imm: 5}},
	}
	for _, c := range checks {
		if p1.Instrs[c.pc] != c.in {
			t.Errorf("pc %d encoded as %v, want %v", c.pc, p1.Instrs[c.pc], c.in)
		}
	}
}

// TestInstrString renders single instructions for diagnostics, naming
// branch targets with the program's own labels.
func TestInstrString(t *testing.T) {
	p := MustAssemble(`
top:	clds r4, 0(r1)
	crel r1, r2
	beq  r4, r0, top
	halt
`)
	for pc, want := range []string{
		"clds r4, 0(r1)",
		"crel r1, r2",
		"beq r4, r0, top",
		"halt",
	} {
		if got := p.InstrString(pc); got != want {
			t.Errorf("InstrString(%d) = %q, want %q", pc, got, want)
		}
	}
	if got := p.InstrString(99); !strings.Contains(got, "out of range") {
		t.Errorf("InstrString(99) = %q, want an out-of-range note", got)
	}
}
