// Per-PE constant propagation over an assembled isa.Program — the
// address-resolution half of the guest lint. The interpreter runs a
// worklist over the program's control-flow graph with a flat constant
// lattice per integer register (a known int64 or ⊤), specialized to one
// PE: rdpe and rdnp produce constants, so SPMD programs that branch on
// the PE number are analyzed along exactly the paths that PE executes
// (conditional branches with fully known operands are pruned to their
// taken side). Shared-memory operands whose base register stays constant
// yield known addresses for the coherence checks in guest.go; addresses
// that depend on runtime values (fetch-and-add tickets, loop induction
// variables) come out ⊤ and are deliberately invisible to the lint.
package lint

import (
	"math/bits"

	"ultracomputer/internal/isa"
)

// val is one lattice value: a known constant or ⊤ (unknown).
type val struct {
	known bool
	v     int64
}

var top = val{}

func con(v int64) val { return val{known: true, v: v} }

func join(a, b val) val {
	if a.known && b.known && a.v == b.v {
		return a
	}
	return top
}

// regState is the abstract integer register file at one program point.
// r0 is hardwired zero; the float file never feeds an address, so it is
// not tracked.
type regState [isa.NumRegs]val

func joinStates(a, b regState) (regState, bool) {
	changed := false
	for i := range a {
		j := join(a[i], b[i])
		if j != a[i] {
			a[i] = j
			changed = true
		}
	}
	return a, changed
}

// interp is one PE's abstract execution of a program.
type interp struct {
	prog     *isa.Program
	pe, npes int

	in      []regState // joined state on entry to each pc
	reached []bool
}

// run computes the reachable pcs and their entry states for one PE.
func analyze(prog *isa.Program, pe, npes int) *interp {
	n := len(prog.Instrs)
	it := &interp{
		prog: prog, pe: pe, npes: npes,
		in:      make([]regState, n),
		reached: make([]bool, n),
	}
	if n == 0 {
		return it
	}

	// Cores power on with a zeroed register file.
	var entry regState
	for i := range entry {
		entry[i] = con(0)
	}
	it.in[0] = entry
	it.reached[0] = true
	work := []int{0}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		out, succs := it.transfer(pc, it.in[pc])
		for _, s := range succs {
			if s < 0 || s >= n {
				continue
			}
			if !it.reached[s] {
				it.reached[s] = true
				it.in[s] = out
				work = append(work, s)
			} else if merged, changed := joinStates(it.in[s], out); changed {
				it.in[s] = merged
				work = append(work, s)
			}
		}
	}
	return it
}

// transfer applies the transfer function of the instruction at pc to state
// s, returning the out-state and the successor pcs (pruned when branch
// operands are fully known). The lattice has no arithmetic of its own:
// a register-only instruction whose every source is a known integer is
// folded by executing it (isa.Regs.Exec, the core's own ALU) on a scratch
// register file; anything else sends the registers it defines to ⊤ and
// takes its static successors.
func (it *interp) transfer(pc int, s regState) (regState, []int) {
	in := &it.prog.Instrs[pc]
	useI, useF, defI, _ := in.Regs()
	useI, defI = useI&^1, defI&^1 // r0 is zero in s and in r, and stays so
	known := useF == 0            // the float file is not tracked
	var r isa.Regs
	for m := useI; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		known = known && s[i].known
		r.I[i] = s[i].v
	}
	switch cl := in.Op.Class(); {
	case cl == isa.ClassReg && known:
		next, _ := r.Exec(in, pc)
		for m := defI; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			s[i] = con(r.I[i])
		}
		return s, []int{next}
	case cl == isa.ClassPE:
		// This PE's identity is a constant of the analysis.
		id := it.pe
		if in.Op == isa.RDNP {
			id = it.npes
		}
		if in.Rd != 0 {
			s[in.Rd] = con(int64(id))
		}
		return s, []int{pc + 1}
	}
	for m := defI; m != 0; m &= m - 1 {
		s[bits.TrailingZeros32(m)] = top
	}
	succs, _ := it.prog.Succs(pc)
	return s, succs
}

// succs re-derives the successor list of a reached pc from its final
// joined entry state, for the reachability walks of the rule checks.
func (it *interp) succs(pc int) []int {
	if !it.reached[pc] {
		return nil
	}
	_, next := it.transfer(pc, it.in[pc])
	var out []int
	for _, s := range next {
		if s >= 0 && s < len(it.prog.Instrs) && it.reached[s] {
			out = append(out, s)
		}
	}
	return out
}

// addrOf resolves the shared address rs+imm of the memory instruction at
// a reached pc, if the base register is a known constant there.
func (it *interp) addrOf(pc int) (int64, bool) {
	in := it.prog.Instrs[pc]
	base := con(0)
	if in.Rs != 0 {
		base = it.in[pc][in.Rs]
	}
	if !base.known {
		return 0, false
	}
	return base.v + in.Imm, true
}

// regVal reads the final joined value of register r at a reached pc.
func (it *interp) regVal(pc, r int) (int64, bool) {
	if r == 0 {
		return 0, true
	}
	v := it.in[pc][r]
	return v.v, v.known
}
