package mc

import (
	"testing"

	"ultracomputer/internal/isa"
)

// fuzzBase is the program a fuzzed line is appended to: its labels and
// regions are the ones the repository's `;mc:` lines name.
const fuzzBase = `;mc: region wcs wcs wend
;mc: region rcs rgo rend
;mc: region cs csbeg crit_end
csbeg:
wcs:    li   r1, 1
rgo:    li   r2, 2
crit_end:
wend:   li   r3, 3
rend:   halt
`

// FuzzParseAnnotations: a line appended to fuzzBase either fails to
// parse, or every property it yields evaluates without a panic, and
// parsing the property's Src again gives the same value. The line runs
// as assembled with the program when it assembles (so an assert can
// attach), and against the base program alone when it does not. The seed
// corpus in testdata/fuzz is every `;mc:` line in the repository.
func FuzzParseAnnotations(f *testing.F) {
	var regs [isa.NumRegs]int64
	for r := range regs {
		regs[r] = int64(r*r) - 5
	}
	ctx := &EvalCtx{
		NPEs: 3,
		PE:   2,
		Mem:  func(a int64) int64 { return 3*a - 1 },
		Reg:  func(r int) int64 { return regs[r] },
	}
	base, err := isa.Assemble(fuzzBase)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, line string) {
		src := fuzzBase + line + "\n"
		prog, err := isa.Assemble(src)
		if err != nil {
			prog = base
		}
		a, err := ParseAnnotations(src, prog)
		if err != nil {
			return
		}
		check := func(p Prop, allowRegs bool) {
			got := p.Eval(ctx)
			n, err := parseExpr(p.Src, allowRegs)
			if err != nil {
				t.Fatalf("%q parsed from the line but not alone: %v", p.Src, err)
			}
			if again := n.eval(ctx); again != got {
				t.Fatalf("%q evaluates to %d, and to %d parsed again", p.Src, got, again)
			}
		}
		for _, ps := range [][]Prop{a.Invariants, a.Finals} {
			for _, p := range ps {
				check(p, false)
			}
		}
		for _, ps := range a.Asserts {
			for _, p := range ps {
				check(p, true)
			}
		}
	})
}
