package machine

import (
	"bytes"
	"fmt"
	"math"
	"reflect"

	"ultracomputer/internal/isa"
)

// diffTwins reports the first difference between a stepped machine a and
// a Run-driven machine b, or "".
func (tc twinCase) diffTwins(a, b *twin) string {
	ma, mb := a.m, b.m
	if ma.Cycles() != mb.Cycles() || ma.PECycles() != mb.PECycles() || ma.Done() != mb.Done() {
		return fmt.Sprintf("cycles/PE cycles/done: stepped %d/%d/%v, run %d/%d/%v",
			ma.Cycles(), ma.PECycles(), ma.Done(), mb.Cycles(), mb.PECycles(), mb.Done())
	}
	ra, _ := ma.Report().JSON()
	rb, _ := mb.Report().JSON()
	if !bytes.Equal(ra, rb) {
		return fmt.Sprintf("report:\nstepped %s\nrun     %s", ra, rb)
	}
	for i := range ma.pes {
		if sa, sb := ma.pes[i].Stats(), mb.pes[i].Stats(); !reflect.DeepEqual(sa, sb) || ma.pes[i].Halted() != mb.pes[i].Halted() {
			return fmt.Sprintf("PE %d stats:\nstepped %+v\nrun     %+v", i, *sa, *sb)
		}
	}
	for i, ca := range a.cores {
		cb := b.cores[i]
		if ca.PC() != cb.PC() || ca.Halted() != cb.Halted() {
			return fmt.Sprintf("core %d pc/halted: stepped %d/%v, run %d/%v", i, ca.PC(), ca.Halted(), cb.PC(), cb.Halted())
		}
		for r := 0; r < isa.NumRegs; r++ {
			if ca.Reg(r) != cb.Reg(r) || math.Float64bits(ca.FReg(r)) != math.Float64bits(cb.FReg(r)) {
				return fmt.Sprintf("core %d r%d/f%d: stepped %d/%g, run %d/%g", i, r, r, ca.Reg(r), ca.FReg(r), cb.Reg(r), cb.FReg(r))
			}
		}
		for w := 0; w < tc.local; w++ {
			if ca.Local(w) != cb.Local(w) {
				return fmt.Sprintf("core %d local[%d]: stepped %d, run %d", i, w, ca.Local(w), cb.Local(w))
			}
		}
		if ka, kb := ca.Cache(), cb.Cache(); ka != nil {
			for x := tc.cached[0]; x < tc.cached[1]; x++ {
				if ka.Contains(x) != kb.Contains(x) {
					return fmt.Sprintf("core %d cache holds %d: stepped %v, run %v", i, x, ka.Contains(x), kb.Contains(x))
				}
			}
			if !reflect.DeepEqual(ka.Stats(), kb.Stats()) {
				return fmt.Sprintf("core %d cache stats:\nstepped %+v\nrun     %+v", i, *ka.Stats(), *kb.Stats())
			}
		}
	}
	for _, r := range tc.shared {
		for x := r[0]; x < r[1]; x++ {
			if ma.ReadShared(x) != mb.ReadShared(x) {
				return fmt.Sprintf("M[%d]: stepped %d, run %d", x, ma.ReadShared(x), mb.ReadShared(x))
			}
		}
	}
	if sa := ma.Sampler(); sa != nil {
		na, nb := sa.Snapshots(), mb.Sampler().Snapshots()
		if len(na) != len(nb) {
			return fmt.Sprintf("sampler: stepped %d snapshots, run %d", len(na), len(nb))
		}
		for k := b.seen; k < len(na); k++ {
			if !reflect.DeepEqual(na[k], nb[k]) {
				return fmt.Sprintf("sampler snapshot %d:\nstepped %+v\nrun     %+v", k, na[k], nb[k])
			}
		}
		b.seen = len(nb)
	}
	return ""
}
