package machine

import (
	"fmt"
	"strings"
	"testing"

	"ultracomputer/internal/cache"
)

// fuzzCase maps data onto a 2–3 PE SPMD program over a subset of the ISA
// that always halts and never faults — li/addi/add/mul/mod, lw/sw in
// range, clds/csts/crel/cflu, lds/sts/faa, forward beq, halt — and picks
// a stop cycle as a fraction (of 256) of the run.
func fuzzCase(data []byte) (twinCase, int64) {
	var hdr [2]byte
	copy(hdr[:], data)
	if len(data) > 2 {
		data = data[2:]
	} else {
		data = nil
	}
	n := min(len(data)/3, 48)
	reg := func(x byte) string { return fmt.Sprintf("r%d", 3+int(x)%5) }
	src := func(x byte) string { return [...]string{"r1", "r3", "r4", "r5", "r6", "r7"}[int(x)%6] }
	var b strings.Builder
	b.WriteString("\trdpe r1\n\tli r8, 32\n\tli r9, 40\n")
	for i := 0; i < n; i++ {
		op, r, imm := data[3*i], data[3*i+1], data[3*i+2]
		rd, rs, rt := reg(r), src(r/5), src(r/30)
		fmt.Fprintf(&b, "L%d:\t", i)
		switch op % 16 {
		case 0:
			fmt.Fprintf(&b, "li %s, %d", rd, int8(imm))
		case 1:
			fmt.Fprintf(&b, "addi %s, %s, %d", rd, rs, int8(imm))
		case 2:
			fmt.Fprintf(&b, "add %s, %s, %s", rd, rs, rt)
		case 3:
			fmt.Fprintf(&b, "mul %s, %s, %s", rd, rs, rt)
		case 4:
			fmt.Fprintf(&b, "mod %s, %s, %s", rd, rs, rt)
		case 5:
			fmt.Fprintf(&b, "lw %s, %d(r0)", rd, imm%16)
		case 6:
			fmt.Fprintf(&b, "sw %s, %d(r0)", rs, imm%16)
		case 7:
			fmt.Fprintf(&b, "clds %s, %d(r0)", rd, 32+imm%16)
		case 8:
			fmt.Fprintf(&b, "csts %s, %d(r0)", rs, 32+imm%16)
		case 9:
			b.WriteString("crel r8, r9")
		case 10:
			b.WriteString("cflu r8, r9")
		case 11:
			fmt.Fprintf(&b, "lds %s, %d(r0)", rd, imm%16)
		case 12:
			fmt.Fprintf(&b, "sts %s, %d(r0)", rs, imm%16)
		case 13:
			fmt.Fprintf(&b, "faa %s, %d(r0), %s", rd, imm%16, rs)
		case 14:
			fmt.Fprintf(&b, "beq %s, %s, L%d", rs, rt, min(i+1+int(imm%4), n))
		default:
			b.WriteString("halt")
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "L%d:\thalt\n", n)
	return twinCase{
		name: "fuzz", src: b.String(), pes: 2 + int(hdr[0]%2),
		cache: &cache.Config{Sets: 2, Ways: 1, BlockWords: 2},
		local: 16, shared: [][2]int64{{0, 64}}, cached: [2]int64{32, 48},
	}, int64(hdr[1])
}

// FuzzRunMatchesStep: a generated program stopped by Run at a fuzzed
// cycle, and then run to its end, stands where Step leaves it, on real
// and ideal memory (TestRunMatchesStep's comparison).
func FuzzRunMatchesStep(f *testing.F) {
	f.Add([]byte{0, 128, 0, 7, 5, 6, 12, 3, 1, 20, 9, 7, 3, 33, 8, 14, 4, 14, 62, 1, 10, 0, 0, 5, 9, 2})
	f.Add([]byte{1, 40, 13, 3, 2, 11, 9, 4, 2, 70, 3, 14, 99, 1, 9, 0, 0, 10, 0, 0, 15, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tc, frac := fuzzCase(data)
		for _, ideal := range []bool{false, true} {
			runTwins(t, tc, twinConfig{ideal: ideal, peCycle: 2}, func(end int64) [][]int64 {
				if stop := 1 + frac*end/256; stop < end {
					return [][]int64{{stop, end}}
				}
				return [][]int64{{end}}
			})
		}
	})
}
