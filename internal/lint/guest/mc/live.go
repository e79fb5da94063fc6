package mc

import "ultracomputer/internal/isa"

// Per-pc live-register sets, one uint64 bitmask per register file. The
// checker zeroes dead registers when it canonicalizes a state, which
// collapses the incidental values spin loops leave behind (a ticket
// number after the barrier, a scratch comparison result) and keeps the
// reachable state space small. Registers an `;mc: assert` reads are
// forced live at that pc so the assertion sees real values.

type liveSets struct {
	in  []uint64 // live integer registers at each pc
	fin []uint64 // live float registers at each pc
}

// useDef reports the (use, def) register masks of one instruction for
// the integer and float files, as its row in the instruction table names
// them. r0 is hardwired zero — it reads as zero and writes are discarded
// — so it is never a use or a def; f0 is a real register.
func useDef(in *isa.Instr) (useI, defI, useF, defF uint64) {
	ui, uf, di, df := in.Regs()
	return uint64(ui &^ 1), uint64(di &^ 1), uint64(uf), uint64(df)
}

// liveness runs the classic backward dataflow to a fixpoint. assertUse
// maps a pc to extra integer registers its assertions read.
func liveness(prog *isa.Program, assertUse map[int]uint64) *liveSets {
	n := len(prog.Instrs)
	ls := &liveSets{in: make([]uint64, n), fin: make([]uint64, n)}
	useI := make([]uint64, n)
	defI := make([]uint64, n)
	useF := make([]uint64, n)
	defF := make([]uint64, n)
	succs := make([][]int, n)
	for pc := range prog.Instrs {
		useI[pc], defI[pc], useF[pc], defF[pc] = useDef(&prog.Instrs[pc])
		useI[pc] |= assertUse[pc]
		succs[pc], _ = prog.Succs(pc)
	}
	for changed := true; changed; {
		changed = false
		for pc := n - 1; pc >= 0; pc-- {
			var outI, outF uint64
			for _, s := range succs[pc] {
				if s >= 0 && s < n {
					outI |= ls.in[s]
					outF |= ls.fin[s]
				}
			}
			// Assertions at a successor pc read registers *before* that
			// instruction executes, so assertUse is already in its in-set.
			newI := useI[pc] | (outI &^ defI[pc])
			newF := useF[pc] | (outF &^ defF[pc])
			if newI != ls.in[pc] || newF != ls.fin[pc] {
				ls.in[pc] = newI
				ls.fin[pc] = newF
				changed = true
			}
		}
	}
	return ls
}
