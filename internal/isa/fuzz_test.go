package isa

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzAssemble: the assembler parses outside input (serve.Config.Program
// arrives over HTTP), so it must never panic, and whatever it accepts
// must survive Disassemble → Assemble with identical instructions. The
// seed corpus is every assembly program in the repository plus the
// inputs under testdata/fuzz/FuzzAssemble (bugs this target's first
// version was written against, and whatever the fuzzer has found since).
// `go test` runs the corpus as unit cases; `make fuzz-smoke` fuzzes.
func FuzzAssemble(f *testing.F) {
	for _, pattern := range []string{"../../examples/asm/*.s", "../lint/testdata/*.s", "../coord/guest/*.s"} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			f.Fatalf("no seed programs match %s: %v", pattern, err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		p1, err := Assemble(src)
		if err != nil {
			return
		}
		text := p1.Disassemble()
		p2, err := Assemble(text)
		if err != nil {
			t.Fatalf("reassembling the disassembly: %v\n%s", err, text)
		}
		if len(p1.Instrs) != len(p2.Instrs) {
			t.Fatalf("%d instructions reassembled to %d\n%s", len(p1.Instrs), len(p2.Instrs), text)
		}
		for i := range p1.Instrs {
			// Float immediates compare by bits: NaN is a legal one.
			a, b := p1.Instrs[i], p2.Instrs[i]
			sameFImm := math.Float64bits(a.FImm) == math.Float64bits(b.FImm)
			a.FImm, b.FImm = 0, 0
			if a != b || !sameFImm {
				t.Fatalf("instruction %d: %+v reassembled to %+v\n%s", i, p1.Instrs[i], p2.Instrs[i], text)
			}
		}
	})
}
