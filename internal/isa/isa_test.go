package isa_test

import (
	"math"
	"strings"
	"testing"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
	"ultracomputer/internal/pe"
)

// run executes cores on a small machine and returns it.
func run(t *testing.T, cores []*isa.Core, peCount int) *machine.Machine {
	t.Helper()
	cfg := machine.Config{
		Net:     network.Config{K: 2, Stages: 3, Combining: true},
		Hashing: true,
	}
	generic := make([]pe.Core, len(cores))
	for i, c := range cores {
		generic[i] = c
	}
	cfg.PEs = peCount
	m := machine.New(cfg, generic)
	m.MustRun(10_000_000)
	return m
}

func runOne(t *testing.T, src string) (*isa.Core, *machine.Machine) {
	t.Helper()
	c := isa.NewCore(isa.MustAssemble(src), 1024)
	m := run(t, []*isa.Core{c}, 1)
	return c, m
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",        // unknown mnemonic
		"li r99, 3",           // bad register
		"li r1",               // missing operand
		"add r1, r2",          // wrong arity
		"jmp nowhere",         // undefined label
		"x: nop\nx: nop",      // duplicate label
		"li r1, zzz",          // bad immediate
		"lds r1, 4[r2]",       // bad mem operand
		"fadd f1, f2, r3",     // int reg in float slot
		"9bad: nop\njmp 9bad", // bad label name
		"beq r1, r2, ",        // empty label operand
		"li r+1, 3",           // a register number is decimal digits only:
		"li r-0, 3",           // no sign,
		"fli f+3, 1.5",        // in either file
		"lds r1, 0(r+2)",      // or inside a memory operand,
		"li r0x1, 3",          // no base prefix
		"li r1_0, 3",          // and no digit separator
	}
	for _, src := range cases {
		if _, err := isa.Assemble(src); err == nil {
			t.Errorf("isa.Assemble(%q) succeeded, want error", src)
		}
	}
}

// TestAssembleWhitespace: any whitespace separates the mnemonic from its
// operands — programs arrive over HTTP (serve.Config.Program), tabs and all.
func TestAssembleWhitespace(t *testing.T) {
	p, err := isa.Assemble("\tli\tr1, 42\nx:\tADDI \t r2,\tr1 , -1\r\n\thalt\t; done")
	if err != nil {
		t.Fatal(err)
	}
	want := []isa.Instr{{Op: isa.LI, Rd: 1, Imm: 42}, {Op: isa.ADDI, Rd: 2, Rs: 1, Imm: -1}, {Op: isa.HALT}}
	if len(p.Instrs) != len(want) {
		t.Fatalf("assembled %d instructions, want %d", len(p.Instrs), len(want))
	}
	for i := range want {
		if p.Instrs[i] != want[i] {
			t.Errorf("instr %d = %+v, want %+v", i, p.Instrs[i], want[i])
		}
	}
}

func TestAssembleLabelsAndComments(t *testing.T) {
	p := isa.MustAssemble(`
; program head comment
start:  li r1, 5        # five
loop:   addi r1, r1, -1
        bne r1, r0, loop
        jmp done
        nop
done:   halt
`)
	if p.Labels["start"] != 0 || p.Labels["loop"] != 1 || p.Labels["done"] != 5 {
		t.Fatalf("labels = %v", p.Labels)
	}
	if p.Instrs[2].Imm != 1 { // bne target = loop
		t.Fatalf("branch target = %d, want 1", p.Instrs[2].Imm)
	}
	if p.Instrs[3].Imm != 5 { // jmp target = done
		t.Fatalf("jump target = %d, want 5", p.Instrs[3].Imm)
	}
}

func TestIntegerArithmetic(t *testing.T) {
	c, _ := runOne(t, `
	li   r1, 7
	li   r2, 3
	add  r3, r1, r2   ; 10
	sub  r4, r1, r2   ; 4
	mul  r5, r1, r2   ; 21
	div  r6, r1, r2   ; 2
	mod  r7, r1, r2   ; 1
	and  r8, r1, r2   ; 3
	or   r9, r1, r2   ; 7
	xor  r10, r1, r2  ; 4
	shl  r11, r1, r2  ; 56
	shr  r12, r11, r2 ; 7
	addi r13, r1, 100 ; 107
	slt  r14, r2, r1  ; 1
	sle  r15, r1, r1  ; 1
	seq  r16, r1, r2  ; 0
	sne  r17, r1, r2  ; 1
	li   r18, 0
	div  r19, r1, r18 ; x/0 = 0
	halt
`)
	want := map[int]int64{3: 10, 4: 4, 5: 21, 6: 2, 7: 1, 8: 3, 9: 7, 10: 4,
		11: 56, 12: 7, 13: 107, 14: 1, 15: 1, 16: 0, 17: 1, 19: 0}
	for r, w := range want {
		if got := c.Reg(r); got != w {
			t.Errorf("r%d = %d, want %d", r, got, w)
		}
	}
}

func TestR0Hardwired(t *testing.T) {
	c, _ := runOne(t, `
	li  r0, 99
	add r0, r0, r0
	mov r1, r0
	halt
`)
	if c.Reg(0) != 0 || c.Reg(1) != 0 {
		t.Fatalf("r0 = %d, r1 = %d; r0 must stay zero", c.Reg(0), c.Reg(1))
	}
}

func TestFloatArithmetic(t *testing.T) {
	c, _ := runOne(t, `
	fli   f1, 2.25
	fli   f2, 4.0
	fadd  f3, f1, f2   ; 6.25
	fsub  f4, f2, f1   ; 1.75
	fmul  f5, f1, f2   ; 9.0
	fdiv  f6, f2, f1   ; 1.777...
	fsqrt f7, f2       ; 2.0
	fneg  f8, f1       ; -2.25
	fabs  f9, f8       ; 2.25
	fslt  r1, f1, f2   ; 1
	fsle  r2, f2, f1   ; 0
	fseq  r3, f9, f1   ; 1
	li    r4, 3
	cvtif f10, r4      ; 3.0
	cvtfi r5, f5       ; 9
	halt
`)
	if c.FReg(3) != 6.25 || c.FReg(4) != 1.75 || c.FReg(5) != 9.0 {
		t.Fatalf("f3..f5 = %v %v %v", c.FReg(3), c.FReg(4), c.FReg(5))
	}
	if math.Abs(c.FReg(6)-4.0/2.25) > 1e-15 || c.FReg(7) != 2.0 {
		t.Fatalf("f6, f7 = %v, %v", c.FReg(6), c.FReg(7))
	}
	if c.FReg(8) != -2.25 || c.FReg(9) != 2.25 {
		t.Fatalf("f8, f9 = %v, %v", c.FReg(8), c.FReg(9))
	}
	if c.Reg(1) != 1 || c.Reg(2) != 0 || c.Reg(3) != 1 {
		t.Fatalf("compares = %d %d %d", c.Reg(1), c.Reg(2), c.Reg(3))
	}
	if c.FReg(10) != 3.0 || c.Reg(5) != 9 {
		t.Fatalf("conversions = %v, %d", c.FReg(10), c.Reg(5))
	}
}

func TestControlFlowFactorial(t *testing.T) {
	c, _ := runOne(t, `
	li   r1, 6      ; n
	li   r2, 1      ; acc
loop:	beq  r1, r0, done
	mul  r2, r2, r1
	addi r1, r1, -1
	jmp  loop
done:	halt
`)
	if c.Reg(2) != 720 {
		t.Fatalf("6! = %d, want 720", c.Reg(2))
	}
}

func TestSubroutineCall(t *testing.T) {
	c, _ := runOne(t, `
	li   r1, 10
	jal  r31, double
	jal  r31, double
	halt
double:	add  r1, r1, r1
	jr   r31
`)
	if c.Reg(1) != 40 {
		t.Fatalf("r1 = %d, want 40", c.Reg(1))
	}
}

func TestLocalMemory(t *testing.T) {
	c, _ := runOne(t, `
	li  r1, 5
	li  r2, 123
	sw  r2, 3(r1)    ; local[8] = 123
	lw  r3, 8(r0)    ; r3 = local[8]
	halt
`)
	if c.Reg(3) != 123 || c.Local(8) != 123 {
		t.Fatalf("local memory: r3=%d local[8]=%d", c.Reg(3), c.Local(8))
	}
}

func TestSharedMemoryOps(t *testing.T) {
	c, m := runOne(t, `
	li   r1, 100     ; base address
	li   r2, 7
	sts  r2, 0(r1)   ; M[100] = 7
	faa  r3, 0(r1), r2  ; r3 = 7, M[100] = 14
	lds  r4, 0(r1)      ; r4 = 14
	li   r5, 3
	swp  r6, 0(r1), r5  ; r6 = 14, M[100] = 3
	fao  r7, 4(r1), r2  ; or into M[104]
	fax  r8, 8(r1), r5  ; max into M[108]
	halt
`)
	if c.Reg(3) != 7 || c.Reg(4) != 14 || c.Reg(6) != 14 {
		t.Fatalf("r3,r4,r6 = %d,%d,%d; want 7,14,14", c.Reg(3), c.Reg(4), c.Reg(6))
	}
	if m.ReadShared(100) != 3 {
		t.Fatalf("M[100] = %d, want 3", m.ReadShared(100))
	}
	if m.ReadShared(104) != 7 || m.ReadShared(108) != 3 {
		t.Fatalf("M[104],M[108] = %d,%d", m.ReadShared(104), m.ReadShared(108))
	}
}

func TestSharedFloat(t *testing.T) {
	src := `
	li   r1, 200
	fli  f1, 2.5
	fsts f1, 0(r1)
	flds f2, 0(r1)
	fadd f3, f2, f2
	halt
`
	c, m := runOne(t, src)
	if c.FReg(3) != 5.0 {
		t.Fatalf("f3 = %v, want 5.0", c.FReg(3))
	}
	if m.ReadSharedF(200) != 2.5 {
		t.Fatalf("M[200] = %v, want 2.5", m.ReadSharedF(200))
	}
}

// TestRegisterLockingOverlap checks that independent work proceeds while
// a shared load is outstanding, and that consuming the locked register
// stalls: the distance between issue and use absorbs memory latency.
func TestRegisterLockingOverlap(t *testing.T) {
	// Version A: load then immediately consume.
	srcA := `
	li  r1, 100
	lds r2, 0(r1)
	add r3, r2, r2   ; consumes r2 at once
	halt
`
	// Version B: load, then 12 independent instructions, then consume.
	srcB := `
	li  r1, 100
	lds r2, 0(r1)
	addi r4, r4, 1
	addi r4, r4, 1
	addi r4, r4, 1
	addi r4, r4, 1
	addi r4, r4, 1
	addi r4, r4, 1
	addi r4, r4, 1
	addi r4, r4, 1
	addi r4, r4, 1
	addi r4, r4, 1
	addi r4, r4, 1
	addi r4, r4, 1
	add r3, r2, r2
	halt
`
	idle := func(src string) int64 {
		core := isa.NewCore(isa.MustAssemble(src), 16)
		m := run(t, []*isa.Core{core}, 1)
		if core.Reg(3) != 0 { // memory reads 0
			t.Fatalf("r3 = %d, want 0", core.Reg(3))
		}
		return m.Report().IdleCycles
	}
	a, b := idle(srcA), idle(srcB)
	if b >= a {
		t.Fatalf("overlapped idle %d >= immediate-use idle %d", b, a)
	}
}

// TestParallelFetchAddTickets runs the same program on all 8 PEs: each
// takes a ticket with FAA and stores a flag at 1000+ticket. Every flag
// must be set exactly once.
func TestParallelFetchAddTickets(t *testing.T) {
	prog := isa.MustAssemble(`
	li   r1, 500        ; ticket counter address
	li   r2, 1
	faa  r3, 0(r1), r2  ; r3 = ticket
	li   r4, 1000
	add  r4, r4, r3
	sts  r2, 0(r4)      ; M[1000+ticket] = 1
	halt
`)
	cores := make([]*isa.Core, 8)
	for i := range cores {
		cores[i] = isa.NewCore(prog, 16)
	}
	m := run(t, cores, 8)
	if m.ReadShared(500) != 8 {
		t.Fatalf("counter = %d, want 8", m.ReadShared(500))
	}
	for i := int64(0); i < 8; i++ {
		if m.ReadShared(1000+i) != 1 {
			t.Fatalf("flag %d not set", i)
		}
	}
}

// TestRDPERDNP checks the PE-identity instructions.
func TestRDPERDNP(t *testing.T) {
	prog := isa.MustAssemble(`
	rdpe r1
	rdnp r2
	li   r3, 900
	add  r3, r3, r1
	sts  r1, 0(r3)   ; M[900+pe] = pe
	halt
`)
	cores := make([]*isa.Core, 4)
	for i := range cores {
		cores[i] = isa.NewCore(prog, 4)
	}
	m := run(t, cores, 4)
	for i := int64(0); i < 4; i++ {
		if m.ReadShared(900+i) != i {
			t.Fatalf("M[%d] = %d, want %d", 900+i, m.ReadShared(900+i), i)
		}
	}
	if cores[2].Reg(2) != 4 {
		t.Fatalf("rdnp = %d, want 4", cores[2].Reg(2))
	}
}

func TestOpString(t *testing.T) {
	if !strings.Contains(isa.Instr{Op: isa.FAA, Rd: 1}.String(), "faa") {
		t.Fatal("Instr.String missing mnemonic")
	}
	if isa.Op(200).String() != "op(200)" {
		t.Fatalf("unknown op string = %q", isa.Op(200).String())
	}
}

func TestLocalAddressOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range local access did not panic")
		}
	}()
	runOne(t, `
	li r1, 99999
	lw r2, 0(r1)
	halt
`)
}
