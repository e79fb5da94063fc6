package isa

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
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
		c.lockF[r] = true
	} else {
		c.lockI[r] = true
	}
	return c.locked(in)
}
