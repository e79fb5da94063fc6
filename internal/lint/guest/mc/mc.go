// The bounded model checker: breadth-first enumeration of instruction
// interleavings over the canonical state space, with an ample-set
// partial-order reduction. BFS (rather than DFS) makes the first
// counterexample found a shortest one, so schedules need no separate
// minimization pass.
//
// Reduction rule: in each state, the lowest-numbered runnable PE whose
// next instruction is invisible — touches no shared memory, is not
// HALT/JR, and neither it nor any successor pc carries an assertion or
// changes region membership — is explored alone. If that single
// successor was already visited the state is fully expanded instead,
// which discharges the "ignoring problem" (an invisible loop cannot
// starve the other PEs forever, because closing a cycle forces full
// expansion).
//
// Deadlock detection is semantic, not structural: when a state's every
// successor is already visited ("closing" a region of the graph), each
// runnable PE is run solo with the rest frozen; if every one of them
// provably re-enters a previous local configuration without writing
// shared memory or halting, no PE can ever unblock another — the spins
// are permanent and the state is reported as a deadlock. A backstop
// catches total non-termination: an exhausted search that never reached
// an all-halted state is itself a deadlock of the whole program.
package mc

import (
	"fmt"
	"math"
	"sort"
	"time"

	"ultracomputer/internal/isa"
)

// Options configures one check.
type Options struct {
	// PEs is the model bound N: how many PEs run the program. 2 and 3
	// are the useful settings; state count grows steeply with N.
	PEs int
	// MaxStates caps the explored state count (0: DefaultMaxStates).
	// Hitting the cap yields Result.Exhausted, never a verdict.
	MaxStates int
	// MaxSpinSteps bounds each solo run of the livelock detector
	// (0: DefaultMaxSpinSteps).
	MaxSpinSteps int
}

// Defaults for Options zero values.
const (
	DefaultMaxStates    = 2_000_000
	DefaultMaxSpinSteps = 4096
)

// Kind classifies a violation.
type Kind string

// The violation kinds.
const (
	KindInvariant  Kind = "invariant"   // ;mc: invariant failed
	KindFinal      Kind = "final"       // ;mc: final failed with all PEs halted
	KindAssert     Kind = "assert"      // ;mc: assert failed at its instruction
	KindNoConcur   Kind = "noconcur"    // two PEs inside mutually-excluded regions
	KindDeadlock   Kind = "deadlock"    // runnable PEs that can never progress
	KindLostUpdate Kind = "lost-update" // plain store clobbered a concurrent write
)

// Step is one scheduled instruction of a counterexample.
type Step struct {
	I    int    `json:"i"`              // position in the schedule
	PE   int    `json:"pe"`             // which PE moved
	PC   int    `json:"pc"`             // its pc before the move
	Line int    `json:"line,omitempty"` // source line, when known
	Asm  string `json:"asm,omitempty"`  // source text of the instruction
}

// MemCell is one shared-memory word of the violating state's footprint.
type MemCell struct {
	Addr int64 `json:"addr"`
	Val  int64 `json:"val"`
}

// Violation is a minimized counterexample: the shortest schedule BFS
// found from the initial state to the violating state, plus enough of
// that state for the replay harness to confirm it on the machine.
type Violation struct {
	Program string    `json:"program"` // file name, when checked via a file
	PEs     int       `json:"pes"`
	Kind    Kind      `json:"kind"`
	Prop    string    `json:"prop,omitempty"` // the failed expression / region pair
	Line    int       `json:"line,omitempty"` // the annotation's source line
	PE      int       `json:"pe"`             // PE at fault (assert/lost-update/noconcur)
	PC      int       `json:"pc"`             // that PE's pc in the violating state
	PE2     int       `json:"pe2,omitempty"`  // second PE (noconcur)
	PC2     int       `json:"pc2,omitempty"`
	Addr    int64     `json:"addr,omitempty"` // clobbered cell (lost-update)
	Message string    `json:"message"`
	Steps   []Step    `json:"schedule"`
	Memory  []MemCell `json:"memory"` // shared footprint after the schedule
}

// Result is the outcome of one check.
type Result struct {
	Violation *Violation // nil: no property violated within the bound
	PEs       int        // the PE count actually checked (after ;mc: bound)
	States    int        // canonical states explored
	Exhausted bool       // MaxStates hit before the space closed
	Elapsed   time.Duration
	// Suppressed mirrors the file's `;ultravet:ok guestmc` marker, for
	// callers that honor suppression (ultravet does; tests do not).
	Suppressed     bool
	SuppressReason string
	// HasProps reports whether the program declared any ;mc: property
	// (deadlock and lost-update checking run regardless).
	HasProps bool
}

type parentEdge struct {
	parent key
	pe     int8
	root   bool
}

type checker struct {
	prog     *isa.Program
	anno     *Annotations
	opts     Options
	src      []string // source lines for schedule rendering (may be nil)
	live     *liveSets
	visible  []bool   // per pc: transition must not be ample-selected
	regMask  []uint64 // per pc: region membership bits
	regNames []string // bit index -> region name
	parents  map[key]parentEdge
	encBuf   []byte
	sawFinal bool
}

// Check explores prog under the annotations and bound in opts.
func Check(prog *isa.Program, anno *Annotations, src string, opts Options) (*Result, error) {
	if opts.PEs < 1 {
		return nil, fmt.Errorf("mc: Options.PEs must be >= 1, got %d", opts.PEs)
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = DefaultMaxStates
	}
	if opts.MaxSpinSteps <= 0 {
		opts.MaxSpinSteps = DefaultMaxSpinSteps
	}
	if anno == nil {
		anno = &Annotations{Asserts: map[int][]Prop{}, Regions: map[string]Region{}}
	}
	if anno.Bound > 0 && opts.PEs > anno.Bound {
		opts.PEs = anno.Bound
	}
	if opts.PEs > math.MaxInt8 { // parentEdge.pe holds the PE that moved
		return nil, fmt.Errorf("mc: Options.PEs must be <= %d, got %d", math.MaxInt8, opts.PEs)
	}
	c := newChecker(prog, anno, src, opts)
	start := time.Now()
	res := c.run()
	res.PEs = opts.PEs
	res.Elapsed = time.Since(start)
	res.Suppressed = anno.Suppressed
	res.SuppressReason = anno.SuppressReason
	res.HasProps = anno.HasProps()
	return res, nil
}

// CheckSource assembles src, parses its `;mc:` annotations and checks it.
func CheckSource(src string, opts Options) (*Result, error) {
	prog, err := isa.Assemble(src)
	if err != nil {
		return nil, err
	}
	anno, err := ParseAnnotations(src, prog)
	if err != nil {
		return nil, err
	}
	return Check(prog, anno, src, opts)
}

func newChecker(prog *isa.Program, anno *Annotations, src string, opts Options) *checker {
	c := &checker{
		prog:    prog,
		anno:    anno,
		opts:    opts,
		parents: map[key]parentEdge{},
	}
	if src != "" {
		c.src = splitLines(src)
	}

	assertUse := map[int]uint64{}
	for pc, props := range anno.Asserts {
		for _, p := range props {
			for _, r := range p.regRefs() {
				if r != 0 {
					assertUse[pc] |= 1 << uint(r)
				}
			}
		}
	}
	c.live = liveness(prog, assertUse)

	n := len(prog.Instrs)
	c.regMask = make([]uint64, n)
	for name := range anno.Regions {
		c.regNames = append(c.regNames, name)
	}
	sort.Strings(c.regNames)
	for i, name := range c.regNames {
		rg := anno.Regions[name]
		for pc := rg.Lo; pc < rg.Hi && pc < n; pc++ {
			c.regMask[pc] |= 1 << uint(i)
		}
	}
	hasAssert := func(pc int) bool { return len(anno.Asserts[pc]) > 0 }
	c.visible = make([]bool, n)
	for pc, in := range prog.Instrs {
		// Visible: an assertion here; a jump through a register, whose
		// real successor the static list only approximates; or any class
		// but the three whose effects stay inside the PE — halt and
		// everything that reaches shared memory or the cache, and
		// whatever class comes next.
		succs, exact := prog.Succs(pc)
		vis := hasAssert(pc) || !exact
		if cl := in.Op.Class(); cl != isa.ClassReg && cl != isa.ClassPE && cl != isa.ClassPrivate {
			vis = true
		}
		for _, sc := range succs {
			if sc < 0 || sc >= n {
				vis = true // falling off the program is a halt
			} else if c.regMask[sc] != c.regMask[pc] || hasAssert(sc) {
				vis = true
			}
		}
		c.visible[pc] = vis
	}
	return c
}

func (c *checker) visibleAt(pc int) bool {
	if pc < 0 || pc >= len(c.visible) {
		return true
	}
	return c.visible[pc]
}

func (c *checker) run() *Result {
	res := &Result{}
	s0 := newState(c.opts.PEs)
	enc0 := append([]byte(nil), c.encode(s0)...)
	k0 := hashKey(enc0)
	c.parents[k0] = parentEdge{root: true}
	res.States = 1
	if v := c.checkState(s0, k0); v != nil {
		res.Violation = v
		return res
	}
	frontier := [][]byte{enc0}
	s, succ := &state{}, &state{} // nothing keeps either past its expansion
	var firstClosing *key

	for len(frontier) > 0 {
		var next [][]byte
		for _, enc := range frontier {
			c.decode(enc, s)
			kParent := hashKey(enc)

			// Ample-set attempt: one invisible transition stands in for
			// the whole expansion, unless it would close a cycle.
			ample := -1
			for p := range s.pes {
				if !s.pes[p].halted && !c.visibleAt(s.pes[p].pc) {
					ample = p
					break
				}
			}
			if ample >= 0 {
				s.copyTo(succ)
				c.step(succ, ample)
				encS := append([]byte(nil), c.encode(succ)...)
				kS := hashKey(encS)
				if _, seen := c.parents[kS]; !seen {
					if res.States >= c.opts.MaxStates {
						res.Exhausted = true
						return res
					}
					res.States++
					c.parents[kS] = parentEdge{parent: kParent, pe: int8(ample)}
					if v := c.checkState(succ, kS); v != nil {
						res.Violation = v
						return res
					}
					next = append(next, encS)
					continue
				}
				// Cycle closed: fall through to full expansion.
			}

			newStates := 0
			runnable := 0
			for p := range s.pes {
				if s.pes[p].halted {
					continue
				}
				runnable++
				s.copyTo(succ)
				eff := c.step(succ, p)
				encS := append([]byte(nil), c.encode(succ)...)
				kS := hashKey(encS)
				_, seen := c.parents[kS]
				if !seen {
					if res.States >= c.opts.MaxStates {
						res.Exhausted = true
						return res
					}
					res.States++
					c.parents[kS] = parentEdge{parent: kParent, pe: int8(p)}
				}
				if eff.lostUpdate {
					// The violation is the transition, so it counts even
					// into an already-visited state.
					v := c.newViolation(KindLostUpdate, succ, kS)
					if seen {
						v.Steps = append(c.schedule(kParent), Step{PE: p})
						c.fillStepInfo(v.Steps)
					}
					v.PE = p
					v.PC = v.Steps[len(v.Steps)-1].PC
					v.Addr = eff.addr
					v.Line = c.prog.Line(v.PC)
					v.Message = fmt.Sprintf("lost update: PE%d's store to M[%d] overwrites a value written concurrently since its last read of the cell", p, eff.addr)
					res.Violation = v
					return res
				}
				if !seen {
					if v := c.checkState(succ, kS); v != nil {
						res.Violation = v
						return res
					}
					next = append(next, encS)
					newStates++
				}
			}
			if runnable > 0 && newStates == 0 {
				if firstClosing == nil {
					k := kParent
					firstClosing = &k
				}
				if c.allDivergent(s) {
					v := c.newViolation(KindDeadlock, s, kParent)
					v.Message = fmt.Sprintf("deadlock: %d PE(s) still runnable, every one spinning forever on unchanged shared memory", runnable)
					res.Violation = v
					return res
				}
			}
		}
		frontier = next
	}

	// Backstop: the space closed without ever reaching an all-halted
	// state — no schedule terminates.
	if !c.sawFinal && firstClosing != nil {
		v := &Violation{PEs: c.opts.PEs, Kind: KindDeadlock}
		v.Steps = c.schedule(*firstClosing)
		c.fillStepInfo(v.Steps)
		v.Message = "deadlock: no interleaving reaches an all-halted state"
		res.Violation = v
	}
	return res
}

// checkState evaluates every property on a freshly generated state.
func (c *checker) checkState(s *state, k key) *Violation {
	mem := s.mem.value
	ctx := &EvalCtx{NPEs: len(s.pes), Mem: mem}
	for _, p := range c.anno.Invariants {
		if !p.Holds(ctx) {
			v := c.newViolation(KindInvariant, s, k)
			v.Prop, v.Line = p.Src, p.Line
			v.Message = fmt.Sprintf("invariant violated: %s", p.Src)
			return v
		}
	}
	for i := range s.pes {
		pe := &s.pes[i]
		if pe.halted {
			continue
		}
		for _, p := range c.anno.Asserts[pe.pc] {
			actx := &EvalCtx{NPEs: len(s.pes), PE: i, Mem: mem,
				Reg: func(r int) int64 { return pe.I[r] }}
			if !p.Holds(actx) {
				v := c.newViolation(KindAssert, s, k)
				v.Prop, v.Line = p.Src, p.Line
				v.PE, v.PC = i, pe.pc
				v.Message = fmt.Sprintf("assertion failed at pc %d (PE%d): %s", pe.pc, i, p.Src)
				return v
			}
		}
	}
	for _, nc := range c.anno.NoConcur {
		ra, rb := c.anno.Regions[nc[0]], c.anno.Regions[nc[1]]
		for i := range s.pes {
			if s.pes[i].halted || !inRegion(s.pes[i].pc, ra) {
				continue
			}
			for j := range s.pes {
				if j == i || s.pes[j].halted || !inRegion(s.pes[j].pc, rb) {
					continue
				}
				v := c.newViolation(KindNoConcur, s, k)
				v.Prop = nc[0] + " " + nc[1]
				v.PE, v.PC = i, s.pes[i].pc
				v.PE2, v.PC2 = j, s.pes[j].pc
				v.Message = fmt.Sprintf("mutual exclusion violated: PE%d in %s (pc %d) while PE%d in %s (pc %d)", i, nc[0], s.pes[i].pc, j, nc[1], s.pes[j].pc)
				return v
			}
		}
	}
	allHalted := true
	for i := range s.pes {
		if !s.pes[i].halted {
			allHalted = false
			break
		}
	}
	if allHalted {
		c.sawFinal = true
		for _, p := range c.anno.Finals {
			if !p.Holds(ctx) {
				v := c.newViolation(KindFinal, s, k)
				v.Prop, v.Line = p.Src, p.Line
				v.Message = fmt.Sprintf("final-state property violated: %s", p.Src)
				return v
			}
		}
	}
	return nil
}

func inRegion(pc int, r Region) bool { return pc >= r.Lo && pc < r.Hi }

// allDivergent reports whether every runnable PE of s, run alone with
// the others frozen, provably spins forever without touching shared
// memory — the semantic definition of deadlock under busy-waiting.
func (c *checker) allDivergent(s *state) bool {
	for p := range s.pes {
		if s.pes[p].halted {
			continue
		}
		if !c.divergent(s, p) {
			return false
		}
	}
	return true
}

func (c *checker) divergent(s *state, p int) bool {
	solo := &state{}
	s.copyTo(solo)
	seen := map[string]bool{}
	for i := 0; i < c.opts.MaxSpinSteps; i++ {
		if solo.pes[p].halted {
			return false
		}
		// Memory is frozen during solo runs, so the global encoding
		// differs between iterations only in p's part.
		cfg := string(c.encode(solo))
		if seen[cfg] {
			return true // exact repeat with untouched memory: spins forever
		}
		seen[cfg] = true
		if eff := c.step(solo, p); eff.wroteMem {
			return false
		}
	}
	return false // bound hit: assume progress rather than cry deadlock
}

// newViolation builds the common part: kind, schedule, memory footprint.
func (c *checker) newViolation(kind Kind, s *state, k key) *Violation {
	v := &Violation{PEs: c.opts.PEs, Kind: kind}
	v.Steps = c.schedule(k)
	c.fillStepInfo(v.Steps)
	for _, w := range s.mem {
		v.Memory = append(v.Memory, MemCell{Addr: w.addr, Val: w.val})
	}
	return v
}

// schedule reconstructs the PE sequence from the parent chain.
func (c *checker) schedule(k key) []Step {
	var rev []int8
	for {
		e, ok := c.parents[k]
		if !ok || e.root {
			break
		}
		rev = append(rev, e.pe)
		k = e.parent
	}
	steps := make([]Step, len(rev))
	for i := range rev {
		steps[i] = Step{PE: int(rev[len(rev)-1-i])}
	}
	return steps
}

// fillStepInfo replays the schedule from the initial state to recover
// each step's pc and source text.
func (c *checker) fillStepInfo(steps []Step) {
	s := newState(c.opts.PEs)
	for i := range steps {
		p := steps[i].PE
		steps[i].I = i
		steps[i].PC = s.pes[p].pc
		steps[i].Line = c.prog.Line(steps[i].PC)
		if ln := steps[i].Line; ln > 0 && ln <= len(c.src) {
			steps[i].Asm = trimAsm(c.src[ln-1])
		} else if pc := steps[i].PC; pc >= 0 && pc < len(c.prog.Instrs) {
			steps[i].Asm = c.prog.Instrs[pc].String()
		}
		c.step(s, p)
	}
}

func splitLines(src string) []string {
	var out []string
	start := 0
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			out = append(out, src[start:i])
			start = i + 1
		}
	}
	return append(out, src[start:])
}

func trimAsm(line string) string {
	for i := 0; i < len(line); i++ {
		if line[i] == ';' || line[i] == '#' {
			line = line[:i]
			break
		}
	}
	// Collapse surrounding whitespace.
	for len(line) > 0 && (line[0] == ' ' || line[0] == '\t') {
		line = line[1:]
	}
	for len(line) > 0 && (line[len(line)-1] == ' ' || line[len(line)-1] == '\t') {
		line = line[:len(line)-1]
	}
	return line
}
