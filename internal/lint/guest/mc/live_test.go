package mc

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ultracomputer/internal/isa"
)

// TestUseDefGolden pins the liveness input: for every opcode, the four
// use/def masks of two canonical instructions — registers 1, 2, 3 in
// Rd, Rs, Rt, and all three fields zero (r0 is never live, f0 is a real
// register). A wrong mask zeroes a live register when states are merged,
// which is unsound and silent; testdata/usedef.golden was generated from
// the hand-written per-opcode switch.
func TestUseDefGolden(t *testing.T) {
	var got bytes.Buffer
	for op := isa.Op(0); !strings.HasPrefix(op.String(), "op("); op++ {
		for _, in := range []isa.Instr{{Op: op, Rd: 1, Rs: 2, Rt: 3}, {Op: op}} {
			useI, defI, useF, defF := useDef(&in)
			fmt.Fprintf(&got, "%-5s rd=%d rs=%d rt=%d  useI=%#x defI=%#x useF=%#x defF=%#x\n",
				op, in.Rd, in.Rs, in.Rt, useI, defI, useF, defF)
		}
	}
	checkGolden(t, "usedef.golden", got.Bytes())
}
