// Package lint checks assembled ISA programs for shared-memory
// coordination hazards before they run — the guest-side half of the
// ultravet suite. The Ultracomputer gives software two disciplines for
// shared data: serialization-free coordination through fetch-and-add
// (§3.5, the paper's queue and barrier algorithms) and cached access
// under explicit software coherence (§3.4: read-only or de-facto private
// data may be cached; anything else must be flushed and released around
// its sharing windows). The lint flags programs that use neither:
//
//   - shared-race: two PEs issue plain stores (or a plain store and a
//     plain load) to the same shared word with no fetch-and-add cell or
//     release/acquire chain ordering them;
//   - stale-read: a PE re-reads a shared word through its cache (clds)
//     after another PE's write window, with no crel/cflu invalidating
//     the range in between — the second read can legally return the
//     pre-write value forever;
//   - unflushed-write: a PE dirties a shared word in its write-back
//     cache (csts) that another PE reads, with no cflu on any path after
//     the store — the value may never reach central memory.
//
// Addresses are resolved by per-PE constant propagation (sccp.go).
// Accesses whose address depends on runtime values — fetch-and-add
// tickets, loop induction variables — are invisible to the lint; the
// paper's completely parallel algorithms derive per-PE slots exactly
// that way, which keeps their data cells out of the race rule, and their
// coordination cells are fetch-and-add targets, which exempts them
// explicitly.
package lint

import (
	"fmt"
	"sort"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/msg"
)

// Finding is one guest-lint diagnostic.
type Finding struct {
	PE      int    // PE whose access is flagged
	PC      int    // program counter of the flagged instruction
	Rule    string // "shared-race", "stale-read" or "unflushed-write"
	Addr    int64  // shared address involved
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("pe %d pc %d: %s: %s", f.PE, f.PC, f.Rule, f.Message)
}

// Access classes of shared-memory instructions.
type accClass int

const (
	plainLoad accClass = iota
	plainStore
	rmw
	cachedLoad
	cachedStore
)

// access is one shared-memory access with a statically known address.
type access struct {
	pc    int
	class accClass
	addr  int64
}

// fence is one cflu/crel with its (possibly unknown) word range.
type fence struct {
	pc      int
	flush   bool // cflu (write-back); false = crel (invalidate)
	lo, hi  int64
	loKnown bool
	hiKnown bool
}

// covers reports whether the fence's range includes addr; an unknown
// bound is assumed to cover (the lint never invents a hazard across a
// fence it cannot bound).
func (f fence) covers(addr int64) bool {
	if f.loKnown && addr < f.lo {
		return false
	}
	if f.hiKnown && addr >= f.hi {
		return false
	}
	return true
}

// peSummary is the per-PE result of the abstract execution.
type peSummary struct {
	it       *interp
	accesses []access
	fences   []fence
	// syncCells are addresses this PE treats as coordination cells: the
	// targets of its fetch-and-phi instructions plus the cells it spins
	// on (a backward conditional branch fed by a shared load).
	syncCells map[int64]bool
}

// Options configures the machine the lint assumes the program runs on.
type Options struct {
	// PEs is the number of processing elements executing the program
	// (SPMD).
	PEs int
	// Copies is the number of identical network copies
	// (network.Config.Copies). A PE's successive requests are injected
	// round-robin across copies, so with Copies > 1 two requests from
	// the same PE can traverse disjoint switch sets and complete out of
	// order; the late-flush rule only applies then.
	Copies int
}

// ProgramsOpts lints one assembled program per PE (SPMD callers pass the
// same *isa.Program for every PE) under opts and returns the findings,
// sorted.
func ProgramsOpts(progs []*isa.Program, opts Options) []Finding {
	npes := len(progs)
	sums := make([]*peSummary, npes)
	for pe, prog := range progs {
		sums[pe] = summarize(prog, pe, npes)
	}

	var findings []Finding
	findings = append(findings, checkRaces(sums)...)
	findings = append(findings, checkStaleReads(sums)...)
	findings = append(findings, checkUnflushedWrites(sums)...)
	if opts.Copies > 1 {
		findings = append(findings, checkLateFlush(sums, opts.Copies)...)
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.PE != b.PE {
			return a.PE < b.PE
		}
		return a.PC < b.PC
	})
	return findings
}

// Programs lints progs on a single-copy network.
func Programs(progs []*isa.Program) []Finding {
	return ProgramsOpts(progs, Options{PEs: len(progs), Copies: 1})
}

// ProgramOpts lints a single program run SPMD under opts.
func ProgramOpts(prog *isa.Program, opts Options) []Finding {
	if opts.PEs <= 0 {
		opts.PEs = 1
	}
	progs := make([]*isa.Program, opts.PEs)
	for i := range progs {
		progs[i] = prog
	}
	return ProgramsOpts(progs, opts)
}

// Program lints a single program run SPMD on npes PEs (single-copy
// network).
func Program(prog *isa.Program, npes int) []Finding {
	return ProgramOpts(prog, Options{PEs: npes, Copies: 1})
}

// summarize runs the abstract interpreter for one PE and classifies its
// shared accesses.
func summarize(prog *isa.Program, pe, npes int) *peSummary {
	it := analyze(prog, pe, npes)
	s := &peSummary{it: it, syncCells: map[int64]bool{}}
	for pc, in := range prog.Instrs {
		if !it.reached[pc] {
			continue
		}
		switch in.Op.Class() {
		case isa.ClassShared:
			switch in.Op.Mem() {
			case msg.Load:
				s.record(pc, plainLoad)
			case msg.Store:
				s.record(pc, plainStore)
			default: // the fetch-and-phi family
				if addr, ok := it.addrOf(pc); ok {
					s.syncCells[addr] = true
					s.accesses = append(s.accesses, access{pc: pc, class: rmw, addr: addr})
				}
			}
		case isa.ClassCached:
			if in.Op == isa.CLDS {
				s.record(pc, cachedLoad)
			} else {
				s.record(pc, cachedStore)
			}
		case isa.ClassCacheRange:
			f := fence{pc: pc, flush: in.Op == isa.CFLU}
			f.lo, f.loKnown = it.regVal(pc, in.Rs)
			f.hi, f.hiKnown = it.regVal(pc, in.Rt)
			s.fences = append(s.fences, f)
		}
	}
	s.findSpinCells()
	return s
}

func (s *peSummary) record(pc int, class accClass) {
	if addr, ok := s.it.addrOf(pc); ok {
		s.accesses = append(s.accesses, access{pc: pc, class: class, addr: addr})
	}
}

// findSpinCells marks the addresses of spin loops as sync cells: a
// backward conditional branch whose loop body contains a shared load of
// a known address into one of the branch's source registers is the
// paper's busy-wait idiom (generation cells, ready flags, turn cells).
func (s *peSummary) findSpinCells() {
	for pc, in := range s.it.prog.Instrs {
		if !s.it.reached[pc] {
			continue
		}
		succs, exact := s.it.prog.Succs(pc)
		if !exact || len(succs) != 2 { // not a conditional branch
			continue
		}
		target := succs[1]
		if target > pc { // not a backward branch
			continue
		}
		for bodyPC := target; bodyPC <= pc; bodyPC++ {
			b := s.it.prog.Instrs[bodyPC]
			switch b.Op {
			case isa.LDS, isa.CLDS:
			default:
				continue
			}
			if b.Rd != in.Rs && b.Rd != in.Rt {
				continue
			}
			if addr, ok := s.it.addrOf(bodyPC); ok {
				s.syncCells[addr] = true
			}
		}
	}
}

// reachableFrom collects the pcs CFG-reachable from pc (exclusive of pc
// itself unless it is on a cycle), following the PE's pruned edges.
func reachableFrom(it *interp, pc int) map[int]bool {
	seen := map[int]bool{}
	work := append([]int(nil), it.succs(pc)...)
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[p] {
			continue
		}
		seen[p] = true
		work = append(work, it.succs(p)...)
	}
	return seen
}

// checkRaces flags cross-PE plain store/store and store/load pairs on
// the same known address with no coordination. An address is exempt when
// any PE treats it as a sync cell, or when the pair is ordered by a
// release/acquire chain: the storing PE writes some sync cell S after
// its store, and the other PE reads S before its access.
func checkRaces(sums []*peSummary) []Finding {
	syncCells := map[int64]bool{}
	for _, s := range sums {
		for a := range s.syncCells {
			syncCells[a] = true
		}
	}

	// addr -> per-PE plain accesses.
	type peAcc struct {
		pe int
		a  access
	}
	byAddr := map[int64][]peAcc{}
	for pe, s := range sums {
		for _, a := range s.accesses {
			if a.class == plainLoad || a.class == plainStore {
				byAddr[a.addr] = append(byAddr[a.addr], peAcc{pe: pe, a: a})
			}
		}
	}

	addrs := make([]int64, 0, len(byAddr))
	for a := range byAddr {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	var findings []Finding
	reported := map[[2]int]bool{} // (pe, pc) -> already flagged
	for _, addr := range addrs {
		if syncCells[addr] {
			continue
		}
		accs := byAddr[addr]
		for i, w := range accs {
			if w.a.class != plainStore {
				continue
			}
			for j, r := range accs {
				if i == j || r.pe == w.pe {
					continue
				}
				if orderedByChain(sums, syncCells, w.pe, w.a.pc, r.pe, r.a.pc) {
					continue
				}
				kind := "load"
				if r.a.class == plainStore {
					kind = "store"
				}
				key := [2]int{r.pe, r.a.pc}
				if reported[key] {
					continue
				}
				reported[key] = true
				findings = append(findings, Finding{
					PE: r.pe, PC: r.a.pc, Rule: "shared-race", Addr: addr,
					Message: fmt.Sprintf(
						"plain %s of shared M[%d] races with pe %d's store at pc %d: "+
							"no fetch-and-add cell or release/acquire chain orders them "+
							"(`%s`)", kind, addr, w.pe, w.a.pc,
						sums[r.pe].it.prog.InstrString(r.a.pc)),
				})
			}
		}
	}
	return findings
}

// orderedByChain reports whether some sync cell S orders the writer's
// store before the reader's access: the writer has a write of S
// CFG-reachable from its store, and the reader's access is CFG-reachable
// from a read of S. This is the flag-handoff idiom (dotproduct.s: PE 0
// stores the vectors, then the ready flag; the others spin on the flag
// before touching the data).
func orderedByChain(sums []*peSummary, syncCells map[int64]bool, wpe, wpc, rpe, rpc int) bool {
	wAfter := reachableFrom(sums[wpe].it, wpc)

	cells := make([]int64, 0, len(syncCells))
	for s := range syncCells {
		cells = append(cells, s)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })

	for _, s := range cells {
		// Writer releases: a store or rmw of S at a pc reachable after
		// the data store.
		released := false
		for _, a := range sums[wpe].accesses {
			if a.addr != s {
				continue
			}
			if a.class != plainStore && a.class != rmw && a.class != cachedStore {
				continue
			}
			if wAfter[a.pc] {
				released = true
				break
			}
		}
		if !released {
			continue
		}
		// Reader acquires: a load or rmw of S from which the access is
		// reachable.
		for _, a := range sums[rpe].accesses {
			if a.addr != s {
				continue
			}
			if a.class == plainStore || a.class == cachedStore {
				continue
			}
			if reachableFrom(sums[rpe].it, a.pc)[rpc] {
				return true
			}
		}
	}
	return false
}

// checkStaleReads flags cached re-reads of foreign-written words. The
// first clds of a word may miss and fetch fresh data, but any further
// clds of the same word reachable without an intervening crel/cflu
// covering it can be served forever from the stale line.
func checkStaleReads(sums []*peSummary) []Finding {
	var findings []Finding
	for pe, s := range sums {
		foreign := foreignWrites(sums, pe)
		reported := map[int]bool{}
		for _, a := range s.accesses {
			if a.class != cachedLoad || !foreign[a.addr] {
				continue
			}
			// Walk forward from the load; fences covering the address
			// block the walk.
			seen := map[int]bool{}
			work := append([]int(nil), s.it.succs(a.pc)...)
			for len(work) > 0 {
				pc := work[len(work)-1]
				work = work[:len(work)-1]
				if seen[pc] || fenceAt(s, pc, a.addr) {
					continue
				}
				seen[pc] = true
				if cachedLoadOf(s, pc, a.addr) && !reported[pc] {
					reported[pc] = true
					findings = append(findings, Finding{
						PE: pe, PC: pc, Rule: "stale-read", Addr: a.addr,
						Message: fmt.Sprintf(
							"cached re-read of shared M[%d], written by another PE, with no "+
								"crel/cflu since the previous clds at pc %d: the cache may "+
								"serve the stale value forever (`%s`)", a.addr, a.pc,
							s.it.prog.InstrString(pc)),
					})
				}
				work = append(work, s.it.succs(pc)...)
			}
		}
	}
	return findings
}

// checkUnflushedWrites flags cached stores to words other PEs read when
// no cflu covering the word is reachable after the store: the dirty line
// may never be written back.
func checkUnflushedWrites(sums []*peSummary) []Finding {
	var findings []Finding
	for pe, s := range sums {
		readElsewhere := foreignReads(sums, pe)
		for _, a := range s.accesses {
			if a.class != cachedStore || !readElsewhere[a.addr] {
				continue
			}
			flushed := false
			after := reachableFrom(s.it, a.pc)
			for _, f := range s.fences {
				if f.flush && f.covers(a.addr) && (after[f.pc] || f.pc == a.pc) {
					flushed = true
					break
				}
			}
			if !flushed {
				findings = append(findings, Finding{
					PE: pe, PC: a.pc, Rule: "unflushed-write", Addr: a.addr,
					Message: fmt.Sprintf(
						"cached store to shared M[%d], read by another PE, with no cflu on "+
							"any following path: the write may never leave this PE's cache "+
							"(`%s`)", a.addr,
						s.it.prog.InstrString(a.pc)),
				})
			}
		}
	}
	return findings
}

// checkLateFlush flags the cached-line-released-across-a-barrier bug,
// which only the multi-copy network (Copies > 1) turns into a definite
// hazard: a PE dirties a shared word in its write-back cache (csts),
// releases a sync cell other PEs wait on, and only then issues the cflu
// that writes the line back. On a single-copy network a PE's requests
// stay FIFO through the switches, so the write-back — issued right
// after the release — normally reaches memory ahead of any consumer
// woken by it; with Copies > 1 the release and the write-back are
// injected into different copies and the release can overtake it, so a
// consumer legally acquires the barrier and still reads the stale
// value from central memory. The fix is always to flush before
// releasing. (A store with no covering cflu at all is the
// unflushed-write rule's business, not this one's.)
func checkLateFlush(sums []*peSummary, copies int) []Finding {
	syncCells := map[int64]bool{}
	for _, s := range sums {
		for a := range s.syncCells {
			syncCells[a] = true
		}
	}

	var findings []Finding
	for pe, s := range sums {
		readElsewhere := foreignReads(sums, pe)
		reported := map[int]bool{}
		for _, a := range s.accesses {
			if a.class != cachedStore || !readElsewhere[a.addr] || reported[a.pc] {
				continue
			}
			after := reachableFrom(s.it, a.pc)
			var flushes []fence
			for _, f := range s.fences {
				if f.flush && f.covers(a.addr) && (after[f.pc] || f.pc == a.pc) {
					flushes = append(flushes, f)
				}
			}
			if len(flushes) == 0 {
				continue // unflushed-write fires instead
			}
			// A release is a write (of any class, including rmw) to a
			// sync cell on a path after the dirty store.
			for _, rel := range s.accesses {
				if !syncCells[rel.addr] || !after[rel.pc] {
					continue
				}
				switch rel.class {
				case plainStore, cachedStore, rmw:
				default:
					continue
				}
				ordered := false
				for _, f := range flushes {
					if reachableFrom(s.it, f.pc)[rel.pc] {
						ordered = true
						break
					}
				}
				if !ordered {
					reported[a.pc] = true
					findings = append(findings, Finding{
						PE: pe, PC: a.pc, Rule: "late-flush", Addr: a.addr,
						Message: fmt.Sprintf(
							"cached store to shared M[%d] is written back only after the "+
								"release of sync cell M[%d] at pc %d: with %d network copies "+
								"the release can overtake the write-back, so a consumer "+
								"acquires the barrier and still reads the stale value; flush "+
								"before releasing (`%s`)", a.addr, rel.addr, rel.pc, copies,
							s.it.prog.InstrString(a.pc)),
					})
					break
				}
			}
		}
	}
	return findings
}

// foreignWrites collects the known addresses written (by any class of
// store or rmw) by PEs other than pe.
func foreignWrites(sums []*peSummary, pe int) map[int64]bool {
	out := map[int64]bool{}
	for other, s := range sums {
		if other == pe {
			continue
		}
		for _, a := range s.accesses {
			switch a.class {
			case plainStore, cachedStore, rmw:
				out[a.addr] = true
			}
		}
	}
	return out
}

// foreignReads collects the known addresses read (by any class of load
// or rmw) by PEs other than pe.
func foreignReads(sums []*peSummary, pe int) map[int64]bool {
	out := map[int64]bool{}
	for other, s := range sums {
		if other == pe {
			continue
		}
		for _, a := range s.accesses {
			switch a.class {
			case plainLoad, cachedLoad, rmw:
				out[a.addr] = true
			}
		}
	}
	return out
}

// fenceAt reports whether the instruction at pc is a crel/cflu covering
// addr for this PE.
func fenceAt(s *peSummary, pc int, addr int64) bool {
	for _, f := range s.fences {
		if f.pc == pc && f.covers(addr) {
			return true
		}
	}
	return false
}

// cachedLoadOf reports whether pc is a clds of addr.
func cachedLoadOf(s *peSummary, pc int, addr int64) bool {
	for _, a := range s.accesses {
		if a.pc == pc && a.class == cachedLoad && a.addr == addr {
			return true
		}
	}
	return false
}
