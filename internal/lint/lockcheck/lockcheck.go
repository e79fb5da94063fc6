// Package lockcheck is an interprocedural lock-discipline analyzer for
// the host sources. Struct fields declare their protecting mutex in
// source ("// guarded by mu", "// writes guarded by mu", or a
// "//lockcheck:guards mu: a, b, c" block on the struct doc); the
// analyzer computes, for every function in the program, the set of
// locks that are held on entry along every call path (a meet-over-
// call-sites fixpoint on the module call graph), adds each body's own
// acquires and releases in statement order, and then checks four rules:
//
//  1. every access to a guarded field happens with the guard held
//     (reads accept RLock; writes need the exclusive lock) — violations
//     come with the proving call chain from an entry point;
//  2. no field is accessed both atomically and plainly outside its
//     constructor (torn mixed access);
//  3. the nested-acquire graph is cycle-free (lock-order deadlocks),
//     including acquires performed by transitive callees;
//  4. a condition that decides on a local computed before a lock was
//     taken, after guarded state was cleared under that same lock, must
//     re-consult shared state inside the critical section — the exact
//     lost-wakeup shape a scheduler re-check protects against.
//
// Functions only ever called with the lock held (the *Locked helper
// convention) need no annotation: the entry-held fixpoint proves it.
package lockcheck

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"ultracomputer/internal/lint/analysis"
)

// Analyzer is the registered ultravet entry point.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "enforce declared lock discipline: guarded-field access without " +
		"the protecting mutex (interprocedural held-set fixpoint, with the " +
		"proving call chain), mixed plain/atomic access, lock-order cycles, " +
		"and stale condition re-checks after a guarded clear",
	RunProgram: run,
}

// heldSet is a resolved held-lock set: lock -> mode (modeExcl or
// modeShared).
type heldSet map[lockID]int8

// entrySet is a function's entry-held set; top means "no call site
// seen yet" (unreachable code keeps it, and is skipped by the checks).
type entrySet struct {
	top  bool
	held heldSet
}

// incoming is one way a function can be entered.
type incoming struct {
	caller *analysis.Node
	edge   analysis.Edge
	evt    *callEvt // call edges
	lit    *litEvt  // containment edges
}

type checker struct {
	prog  *analysis.Program
	gt    *guardTable
	facts map[*analysis.Node]*funcFacts
	entry map[*analysis.Node]*entrySet
	acq   map[*analysis.Node]map[lockID]bool
	in    map[*analysis.Node][]incoming
	roots []*analysis.Node
	diags []analysis.Diagnostic
}

func run(pass *analysis.ProgramPass) error {
	c := check(pass.Prog)
	sort.Slice(c.diags, func(i, j int) bool {
		if c.diags[i].Pos != c.diags[j].Pos {
			return c.diags[i].Pos < c.diags[j].Pos
		}
		return c.diags[i].Message < c.diags[j].Message
	})
	seen := map[string]bool{}
	for _, d := range c.diags {
		key := fmt.Sprintf("%d/%s", d.Pos, d.Message)
		if seen[key] {
			continue
		}
		seen[key] = true
		pass.Report(d)
	}
	return nil
}

// check walks every body, runs the two fixpoints and applies the four
// rules, leaving the diagnostics (unsorted, possibly repeated) in diags.
func check(prog *analysis.Program) *checker {
	c := &checker{
		prog:  prog,
		gt:    scanGuards(prog),
		facts: map[*analysis.Node]*funcFacts{},
		entry: map[*analysis.Node]*entrySet{},
		acq:   map[*analysis.Node]map[lockID]bool{},
		in:    map[*analysis.Node][]incoming{},
	}
	c.diags = append(c.diags, c.gt.bad...)

	for _, n := range c.prog.Nodes {
		c.facts[n] = walkNode(c, n)
	}
	c.buildIncoming()
	c.acquiresFixpoint()
	c.entryFixpoint()

	c.checkGuardedAccess()
	c.checkMixedAccess()
	c.checkLockOrder()
	c.checkStaleRecheck()
	return c
}

// buildIncoming indexes every call-graph edge by callee, pairing it
// with the caller's held snapshot at the site.
func (c *checker) buildIncoming() {
	for _, n := range c.prog.Nodes {
		ff := c.facts[n]
		for _, e := range n.Calls {
			inc := incoming{caller: n, edge: e}
			if e.Kind == analysis.EdgeContains {
				if e.Callee.Lit != nil {
					inc.lit = ff.lits[e.Callee.Lit]
				}
			} else {
				inc.evt = ff.calls[e.Pos]
			}
			c.in[e.Callee] = append(c.in[e.Callee], inc)
		}
	}
	for _, n := range c.prog.Nodes {
		if len(c.in[n]) == 0 {
			c.roots = append(c.roots, n)
		}
	}
}

// acquiresFixpoint computes each function's may-acquire set, pulling
// callee sets through synchronous edges (go'd calls and stored
// literals run on other goroutines and are excluded).
func (c *checker) acquiresFixpoint() {
	for _, n := range c.prog.Nodes {
		set := map[lockID]bool{}
		for _, aq := range c.facts[n].acquires {
			set[aq.lock] = true
		}
		c.acq[n] = set
	}
	for changed := true; changed; {
		changed = false
		for _, n := range c.prog.Nodes {
			ff := c.facts[n]
			for _, e := range n.Calls {
				if e.Go || !c.syncEdge(ff, e) {
					continue
				}
				for l := range c.acq[e.Callee] {
					if !c.acq[n][l] {
						c.acq[n][l] = true
						changed = true
					}
				}
			}
		}
	}
}

// syncEdge reports whether the callee runs synchronously in the
// caller's goroutine: any call edge, or a containment edge whose
// literal is invoked in place (not stored, not go'd).
func (c *checker) syncEdge(ff *funcFacts, e analysis.Edge) bool {
	if e.Kind != analysis.EdgeContains {
		return true
	}
	if e.Callee.Lit == nil {
		return false
	}
	lit := ff.lits[e.Callee.Lit]
	return lit != nil && lit.sync
}

// entryFixpoint computes entry-held sets: the meet (intersection,
// weakest mode) over every way a function is entered. Functions with
// no call sites start from nothing held; go'd calls and stored
// literals contribute nothing held (a fresh goroutine, or an unknown
// later context).
func (c *checker) entryFixpoint() {
	for _, n := range c.prog.Nodes {
		if len(c.in[n]) == 0 {
			c.entry[n] = &entrySet{held: heldSet{}}
		} else {
			c.entry[n] = &entrySet{top: true}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range c.prog.Nodes {
			ins := c.in[n]
			if len(ins) == 0 {
				continue
			}
			var meet heldSet
			isTop := true
			for _, inc := range ins {
				var contrib heldSet
				switch {
				case inc.edge.Go:
					contrib = heldSet{}
				case inc.edge.Kind == analysis.EdgeContains:
					if inc.lit == nil || !inc.lit.sync {
						contrib = heldSet{}
					} else {
						ce := c.entry[inc.caller]
						if ce.top {
							continue // unresolved caller: identity
						}
						contrib = applyDelta(inc.lit.held, ce.held)
					}
				default:
					if inc.evt == nil {
						contrib = heldSet{}
					} else {
						ce := c.entry[inc.caller]
						if ce.top {
							continue
						}
						contrib = applyDelta(inc.evt.held, ce.held)
					}
				}
				if isTop {
					meet, isTop = contrib, false
					continue
				}
				meet = meetHeld(meet, contrib)
			}
			if isTop {
				continue
			}
			cur := c.entry[n]
			if cur.top || !sameHeld(cur.held, meet) {
				c.entry[n] = &entrySet{held: meet}
				changed = true
			}
		}
	}
}

// applyDelta resolves a local snapshot against an entry set into the
// effective held set at that point.
func applyDelta(snap lockset, entry heldSet) heldSet {
	out := make(heldSet, len(entry)+len(snap))
	for l, m := range entry {
		out[l] = m
	}
	for l, m := range snap {
		switch m {
		case modeExcl:
			out[l] = modeExcl
		case modeShared:
			out[l] = modeShared
		case modeReleased:
			delete(out, l)
		}
	}
	return out
}

// meetHeld intersects two held sets, keeping the weaker mode.
func meetHeld(a, b heldSet) heldSet {
	out := heldSet{}
	for l, ma := range a {
		if mb, ok := b[l]; ok {
			m := ma
			if mb == modeShared {
				m = modeShared
			}
			out[l] = m
		}
	}
	return out
}

func sameHeld(a, b heldSet) bool {
	if len(a) != len(b) {
		return false
	}
	for l, m := range a {
		if b[l] != m {
			return false
		}
	}
	return true
}

// eff resolves a snapshot for node n, or nil when n is unreachable.
func (c *checker) eff(n *analysis.Node, snap lockset) (heldSet, bool) {
	e := c.entry[n]
	if e == nil || e.top {
		return nil, false
	}
	return applyDelta(snap, e.held), true
}

// ---- check 1: guarded-field access ----

func (c *checker) checkGuardedAccess() {
	for _, n := range c.prog.Nodes {
		ff := c.facts[n]
		for _, a := range ff.accesses {
			g, guarded := c.gt.byField[a.field]
			if !guarded {
				continue
			}
			if a.baseLocal {
				continue // constructor: the object is not shared yet
			}
			if !a.write && g.writeOnly {
				continue // lock-free reads are this field's contract
			}
			eff, reachable := c.eff(n, a.held)
			if !reachable {
				continue
			}
			mode := eff[g.mu]
			if mode == modeExcl || (mode == modeShared && !a.write) {
				continue
			}
			verb := "read of"
			if a.write {
				verb = "write to"
			}
			if a.atomic {
				verb = "atomic load of"
				if a.write {
					verb = "atomic store to"
				}
			}
			detail := ""
			if mode == modeShared && a.write {
				detail = " (held only in read mode; writes need the exclusive lock)"
			}
			c.diags = append(c.diags, analysis.Diagnostic{
				Pos: a.pos,
				Message: fmt.Sprintf("%s %s without holding %s%s",
					verb, c.gt.fieldDisplay(a.field), c.gt.name(g.mu), detail),
				Chain: c.chainWithout(n, g.mu),
			})
		}
	}
}

// chainWithout returns a call chain from an entry point to n along
// which mu is never held at the call sites — the path that proves the
// unguarded access is reachable unlocked.
func (c *checker) chainWithout(n *analysis.Node, mu lockID) string {
	follow := func(caller *analysis.Node, e analysis.Edge) bool {
		if e.Go {
			return true // fresh goroutine: nothing held
		}
		ff := c.facts[caller]
		var snap lockset
		if e.Kind == analysis.EdgeContains {
			lit := ff.lits[e.Callee.Lit]
			if lit == nil || !lit.sync {
				return true // stored literal: unknown later context
			}
			snap = lit.held
		} else {
			evt := ff.calls[e.Pos]
			if evt == nil {
				return true
			}
			snap = evt.held
		}
		eff, reachable := c.eff(caller, snap)
		if !reachable {
			return true
		}
		return eff[mu] == 0
	}
	return c.prog.PathTo(c.roots, n, follow)
}

// chainWith is the dual: a chain along which mu IS held at every call
// site, proving how a function was entered with the lock taken.
func (c *checker) chainWith(n *analysis.Node, mu lockID) string {
	follow := func(caller *analysis.Node, e analysis.Edge) bool {
		if e.Go {
			return false
		}
		ff := c.facts[caller]
		var snap lockset
		if e.Kind == analysis.EdgeContains {
			lit := ff.lits[e.Callee.Lit]
			if lit == nil || !lit.sync {
				return false
			}
			snap = lit.held
		} else {
			evt := ff.calls[e.Pos]
			if evt == nil {
				return false
			}
			snap = evt.held
		}
		eff, reachable := c.eff(caller, snap)
		return reachable && eff[mu] != 0
	}
	return c.prog.PathTo(c.roots, n, follow)
}

// ---- check 2: mixed plain/atomic access ----

func (c *checker) checkMixedAccess() {
	type sites struct {
		atomicPos token.Pos
		plain     []access
	}
	byField := map[lockID]*sites{}
	var order []lockID
	for _, n := range c.prog.Nodes {
		for _, a := range c.facts[n].accesses {
			s := byField[a.field]
			if s == nil {
				s = &sites{}
				byField[a.field] = s
				order = append(order, a.field)
			}
			if a.atomic {
				if s.atomicPos == token.NoPos || a.pos < s.atomicPos {
					s.atomicPos = a.pos
				}
			} else if !a.baseLocal {
				s.plain = append(s.plain, a)
			}
		}
	}
	for _, f := range order {
		s := byField[f]
		if s.atomicPos == token.NoPos || len(s.plain) == 0 {
			continue
		}
		at := c.loc(s.atomicPos)
		for _, a := range s.plain {
			verb := "read"
			if a.write {
				verb = "written"
			}
			c.diags = append(c.diags, analysis.Diagnostic{
				Pos: a.pos,
				Message: fmt.Sprintf("mixed atomic/plain access to %s: accessed atomically at %s but %s plainly here",
					c.gt.fieldDisplay(f), at, verb),
			})
		}
	}
}

// ---- check 3: lock-order cycles ----

// orderEvidence is the earliest site witnessing a nested acquire.
type orderEvidence struct {
	pos  token.Pos
	node *analysis.Node
}

func (c *checker) checkLockOrder() {
	edges := map[[2]lockID]orderEvidence{}
	addEdge := func(a, b lockID, pos token.Pos, n *analysis.Node) {
		k := [2]lockID{a, b}
		if old, ok := edges[k]; !ok || pos < old.pos {
			edges[k] = orderEvidence{pos: pos, node: n}
		}
	}
	selfSeen := map[token.Pos]bool{}

	for _, n := range c.prog.Nodes {
		ff := c.facts[n]
		// Direct acquires while other locks are held.
		for _, aq := range ff.acquires {
			eff, reachable := c.eff(n, aq.held)
			if !reachable {
				continue
			}
			for _, a := range sortedLocks(c, eff) {
				if a == aq.lock {
					if eff[a] == modeExcl && !selfSeen[aq.pos] {
						selfSeen[aq.pos] = true
						c.diags = append(c.diags, analysis.Diagnostic{
							Pos: aq.pos,
							Message: fmt.Sprintf("%s acquired while already held (self-deadlock)",
								c.gt.name(aq.lock)),
							Chain: c.chainWith(n, aq.lock),
						})
					}
					continue
				}
				addEdge(a, aq.lock, aq.pos, n)
			}
		}
		// Acquires performed by synchronous callees while locks are held
		// here.
		for _, e := range n.Calls {
			if e.Go || !c.syncEdge(ff, e) {
				continue
			}
			var snap lockset
			if e.Kind == analysis.EdgeContains {
				snap = ff.lits[e.Callee.Lit].held
			} else {
				evt := ff.calls[e.Pos]
				if evt == nil {
					continue
				}
				snap = evt.held
			}
			eff, reachable := c.eff(n, snap)
			if !reachable || len(eff) == 0 {
				continue
			}
			callee := e.Callee
			for _, a := range sortedLocks(c, eff) {
				for _, b := range sortedLocks(c, c.acq[callee]) {
					if a == b {
						if eff[a] == modeExcl && !selfSeen[e.Pos] {
							selfSeen[e.Pos] = true
							c.diags = append(c.diags, analysis.Diagnostic{
								Pos: e.Pos,
								Message: fmt.Sprintf("call to %s may re-acquire %s, which is already held (self-deadlock)",
									callee.Name(), c.gt.name(a)),
								Chain: c.chainWith(n, a),
							})
						}
						continue
					}
					addEdge(a, b, e.Pos, n)
				}
			}
		}
	}

	c.reportCycles(edges)
}

// reportCycles finds strongly connected components of the acquired-
// while-holding graph and reports each one once.
func (c *checker) reportCycles(edges map[[2]lockID]orderEvidence) {
	adj := map[lockID][]lockID{}
	nodes := map[lockID]bool{}
	for k := range edges {
		adj[k[0]] = append(adj[k[0]], k[1])
		nodes[k[0]], nodes[k[1]] = true, true
	}
	var locks []lockID
	for l := range nodes {
		locks = append(locks, l)
	}
	sort.Slice(locks, func(i, j int) bool { return c.gt.name(locks[i]) < c.gt.name(locks[j]) })
	for _, l := range locks {
		sort.Slice(adj[l], func(i, j int) bool { return c.gt.name(adj[l][i]) < c.gt.name(adj[l][j]) })
	}

	// Iterative Tarjan.
	index := map[lockID]int{}
	low := map[lockID]int{}
	onStack := map[lockID]bool{}
	var stack []lockID
	next := 0
	var sccs [][]lockID
	var strongconnect func(v lockID)
	strongconnect = func(v lockID) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []lockID
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	for _, l := range locks {
		if _, seen := index[l]; !seen {
			strongconnect(l)
		}
	}

	for _, scc := range sccs {
		sort.Slice(scc, func(i, j int) bool { return c.gt.name(scc[i]) < c.gt.name(scc[j]) })
		inSCC := map[lockID]bool{}
		for _, l := range scc {
			inSCC[l] = true
		}
		var descs []string
		minPos := token.Pos(0)
		var names []string
		for _, l := range scc {
			names = append(names, c.gt.name(l))
		}
		for _, a := range scc {
			for _, b := range adj[a] {
				if !inSCC[b] {
					continue
				}
				ev := edges[[2]lockID{a, b}]
				descs = append(descs, fmt.Sprintf("%s → %s at %s", c.gt.name(a), c.gt.name(b), c.loc(ev.pos)))
				if minPos == 0 || ev.pos < minPos {
					minPos = ev.pos
				}
			}
		}
		c.diags = append(c.diags, analysis.Diagnostic{
			Pos: minPos,
			Message: fmt.Sprintf("lock-order cycle between %s (%s); acquire them in one consistent order or the paths can deadlock",
				strings.Join(names, " and "), strings.Join(descs, "; ")),
		})
	}
}

// ---- check 4: stale condition re-check ----

func (c *checker) checkStaleRecheck() {
	for _, n := range c.prog.Nodes {
		ff := c.facts[n]
		for _, b := range ff.branches {
			if b.hasCall {
				continue // the condition re-consults shared state
			}
			hb, reachable := c.eff(n, b.held)
			if !reachable || len(hb) == 0 {
				continue
			}
			for _, cv := range b.vars {
				if !cv.def.suspicious {
					continue
				}
				hd, _ := c.eff(n, cv.def.held)
				reported := false
				for _, B := range sortedLocks(c, hb) {
					if hd[B] != 0 {
						continue // the local was computed under the same lock
					}
					for _, cl := range ff.clears {
						if cl.mu != B || cl.seq <= cv.def.seq || cl.seq >= b.seq {
							continue
						}
						ch, _ := c.eff(n, cl.held)
						if ch[B] == 0 {
							continue
						}
						c.diags = append(c.diags, analysis.Diagnostic{
							Pos: b.pos,
							Message: fmt.Sprintf("condition decides on %q, computed before %s was acquired, but %s was cleared under that lock in between; re-check shared state inside the critical section (lost-wakeup shape)",
								cv.name, c.gt.name(B), c.gt.fieldDisplay(cl.field)),
						})
						reported = true
						break
					}
					if reported {
						break
					}
				}
				if reported {
					break
				}
			}
		}
	}
}

// ---- helpers ----

// sortedLocks lists a lock-keyed set (a held set, a may-acquire set) by
// lock name.
func sortedLocks[V any](c *checker, set map[lockID]V) []lockID {
	out := make([]lockID, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return c.gt.name(out[i]) < c.gt.name(out[j]) })
	return out
}

// loc renders a short file:line for message text (base name only, so
// messages do not depend on the checkout path).
func (c *checker) loc(pos token.Pos) string {
	p := c.prog.Fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
