package machine

import (
	"testing"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/isa"
	"ultracomputer/internal/isa/isagen"
)

// FuzzRunMatchesStep: a generated program stopped by Run at a fuzzed
// cycle, and then run to its end, stands where Step leaves it, on real
// and ideal memory (TestRunMatchesStep's comparison). A failing program
// is shrunk before it is printed.
func FuzzRunMatchesStep(f *testing.F) {
	f.Add([]byte{0, 128, 0, 7, 5, 6, 12, 3, 1, 20, 9, 7, 3, 33, 8, 14, 4, 14, 62, 1, 10, 0, 0, 5, 9, 2})
	f.Add([]byte{1, 40, 13, 3, 2, 11, 9, 4, 2, 70, 3, 14, 99, 1, 9, 0, 0, 10, 0, 0, 15, 0, 0})
	spec := isagen.Spec{PEs: 3, Private: 16, Shared: [2]int64{0, 16}, Cached: [2]int64{32, 48}, Body: 32}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := isagen.Bytes(data)
		frac := int64(src.Intn(256))
		differ := func(prog *isa.Program, pes int) (err error) {
			tc := twinCase{name: "fuzz", src: prog.Disassemble(), pes: pes, cache: &cache.Config{Sets: 2, Ways: 1, BlockWords: 2},
				local: spec.Private, shared: [][2]int64{spec.Shared, spec.Cached}, cached: spec.Cached}
			for _, ideal := range []bool{false, true} {
				if err == nil {
					err = runTwins(t, tc, twinConfig{ideal: ideal, peCycle: 2}, func(end int64) [][]int64 {
						return [][]int64{{min(1+frac*end/256, end), end}}
					})
				}
			}
			return err
		}
		if prog, pes := isagen.Generate(spec, &src); differ(prog, pes) != nil {
			prog, pes = isagen.Shrink(prog, pes, func(p *isa.Program, n int) bool { return differ(p, n) != nil })
			t.Fatalf("%v\nshrunk to %d PEs:\n%s", differ(prog, pes), pes, prog.Disassemble())
		}
	})
}
