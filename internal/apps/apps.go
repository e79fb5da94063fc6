// Package apps contains parallel versions of the scientific programs the
// paper studies in §4.2 and §5.0 — Householder reduction to tridiagonal
// form (TRED2), a multigrid Poisson solver, a 2-D PDE time-stepper
// standing in for the NASA weather code, and Monte Carlo particle
// tracking — each as a serial Go reference plus an Ultracomputer program
// built from the paper's idioms: fetch-and-add self-scheduled loops,
// fetch-and-add reductions, and critical-section-free barriers.
//
// The machine versions charge simulated instruction time for the
// arithmetic they perform natively (via ctx.Compute/ctx.Private) using
// the cost weights below, calibrated so the instruction mix resembles
// the paper's CDC 6600-type PEs, where "most instructions involved
// register-to-register transfers" and roughly one instruction in four or
// five touches data memory.
package apps

import (
	"ultracomputer/internal/coord"
	"ultracomputer/internal/pe"
)

// Instruction-cost weights (PE instruction times) for work done natively.
const (
	// CostFlop covers one floating-point multiply-add pair with its
	// register traffic.
	CostFlop = 2
	// CostLoop covers loop initialization overhead per loop entered.
	CostLoop = 2
)

// Arena allocates disjoint ranges of the flat shared address space.
type Arena struct{ next int64 }

// NewArena starts allocating at base.
func NewArena(base int64) *Arena { return &Arena{next: base} }

// Alloc reserves n cells and returns the first address.
func (a *Arena) Alloc(n int64) int64 {
	p := a.next
	a.next += n
	return p
}

// Matrix addresses an n×n shared-memory matrix.
type Matrix struct {
	Base int64
	N    int
}

// At returns the address of element (i, j).
func (m Matrix) At(i, j int) int64 { return m.Base + int64(i*m.N+j) }

// Vector addresses a shared-memory vector.
type Vector struct {
	Base int64
	N    int
}

// At returns the address of element i.
func (v Vector) At(i int) int64 { return v.Base + int64(i) }

// Reducer implements an all-to-all float64 sum that doubles as a
// barrier, built from one fetch-and-add arrival counter and a generation
// cell (so it costs one synchronization round, not two): each PE
// deposits its partial and announces arrival; the last arriver folds the
// partials, resets the counter and bumps the generation everyone else
// spins on. The arrival fetch-and-adds combine in the network. Reusable
// across rounds; all cells must start zero.
type Reducer struct {
	p        int
	partials Vector
	count    int64 // arrival counter
	gen      int64 // generation cell
	total    int64 // folded sum
}

// NewReducer lays out a reducer for p PEs in the arena. Every PE must
// call Sum the same number of times.
func NewReducer(a *Arena, p int) *Reducer {
	return &Reducer{
		p:        p,
		partials: Vector{Base: a.Alloc(int64(p)), N: p},
		count:    a.Alloc(1),
		gen:      a.Alloc(1),
		total:    a.Alloc(1),
	}
}

// Sum folds each PE's partial into a grand total visible to all PEs. It
// has barrier semantics: no PE returns before every PE has deposited,
// and each PE's earlier pipelined stores are fenced, so Sum also
// publishes data written before it.
func (r *Reducer) Sum(ctx *pe.Ctx, partial float64) float64 {
	me := ctx.PE() % r.p
	ctx.StoreF(r.partials.At(me), partial)
	ctx.Fence()
	gen := ctx.Load(r.gen)
	if ctx.FetchAdd(r.count, 1) == int64(r.p)-1 {
		buf := make([]float64, r.p)
		PrefetchF(ctx, func(i int) int64 { return r.partials.At(i) }, r.p, buf)
		s := 0.0
		for _, v := range buf {
			s += v
		}
		ctx.Compute(r.p * CostFlop)
		ctx.StoreF(r.total, s)
		ctx.Store(r.count, 0)
		ctx.Fence() // total and reset visible before the release
		ctx.FetchAdd(r.gen, 1)
		return s
	}
	for ctx.Load(r.gen) == gen {
		// Each probe is a blocking central-memory load; concurrent
		// probes of the generation cell combine in the switches.
	}
	return ctx.LoadF(r.total)
}

// Counters hands out one fresh shared fetch-and-add counter per use, so
// self-scheduled loops never need to reset a counter (resets would race
// with stragglers).
type Counters struct {
	base int64
	n    int64
}

// NewCounters reserves n one-shot counters.
func NewCounters(a *Arena, n int64) *Counters {
	return &Counters{base: a.Alloc(n), n: n}
}

// Addr returns the address of counter i.
func (c *Counters) Addr(i int64) int64 {
	if i < 0 || i >= c.n {
		panic("apps: counter index out of range")
	}
	return c.base + i
}

// attachBarrier adopts the barrier cells laid out by the machine builder
// (fresh shared memory is zero, so no initialization store is needed and
// every PE may attach concurrently).
func attachBarrier(ctx *pe.Ctx, base int64, p, me int) *coord.Barrier {
	_ = me
	return coord.AttachBarrier(ctx, base, p)
}

// prefetchDepth is the software-pipelining window: how many shared loads
// are kept in flight through locked registers (§3.5 — "software designed
// for such processors attempts to prefetch data sufficiently early").
// It stays below the PNI's outstanding-request bound.
const prefetchDepth = 10

// PrefetchF reads n shared float64 cells addressed by addr(j) into buf
// with a pipeline of asynchronous loads, so consecutive fetches overlap
// the network round trip instead of paying it serially.
func PrefetchF(ctx *pe.Ctx, addr func(j int) int64, n int, buf []float64) {
	PrefetchFDepth(ctx, addr, n, buf, prefetchDepth)
}

// PrefetchFDepth is PrefetchF with an explicit pipeline depth — shallow
// depths model compilers that prefetch only within an expression, as the
// paper's CDC code generator did for the weather program.
func PrefetchFDepth(ctx *pe.Ctx, addr func(j int) int64, n int, buf []float64, depth int) {
	if depth < 1 {
		depth = 1
	}
	if depth > prefetchDepth {
		depth = prefetchDepth
	}
	handles := make([]*pe.Handle, depth)
	for j := 0; j < n; j++ {
		if j >= depth {
			buf[j-depth] = handles[j%depth].WaitF()
		}
		handles[j%depth] = ctx.LoadAsync(addr(j))
	}
	lo := n - depth
	if lo < 0 {
		lo = 0
	}
	for j := lo; j < n; j++ {
		buf[j] = handles[j%depth].WaitF()
	}
}

// LoadRowF prefetches matrix row i into buf (length m.N).
func LoadRowF(ctx *pe.Ctx, m Matrix, i int, buf []float64) {
	PrefetchF(ctx, func(j int) int64 { return m.At(i, j) }, m.N, buf)
}

// LoadRowFDepth is LoadRowF with an explicit pipeline depth.
func LoadRowFDepth(ctx *pe.Ctx, m Matrix, i int, buf []float64, depth int) {
	PrefetchFDepth(ctx, func(j int) int64 { return m.At(i, j) }, m.N, buf, depth)
}

// WindowPass distributes the interior rows [1, n−1) of an n-column grid
// over the PEs in chunks claimed by fetch-and-add, loading each chunk
// plus a one-row halo from src with a sliding window (so a row is
// fetched once per chunk, the register-reuse pattern of compiled stencil
// code). For every interior row it calls fn(i, up, cur, down) which
// returns the new row values; non-nil results are stored to dst columns
// [1, n−1). counter must be a fresh shared counter.
func WindowPass(ctx *pe.Ctx, counter int64, src, dst Matrix, n, chunk int,
	fn func(i int, up, cur, down []float64) []float64) {
	if chunk < 1 {
		chunk = 1
	}
	interior := n - 2
	nChunks := (interior + chunk - 1) / chunk
	window := make([][]float64, chunk+2)
	for i := range window {
		window[i] = make([]float64, n)
	}
	loadRow := func(buf []float64, i int) {
		LoadRowF(ctx, src, i, buf)
	}
	SelfSchedule(ctx, counter, nChunks, func(ci int) {
		lo := 1 + ci*chunk
		hi := lo + chunk
		if hi > n-1 {
			hi = n - 1
		}
		rows := hi - lo
		for r := 0; r < rows+2; r++ {
			loadRow(window[r], lo-1+r)
		}
		for r := 1; r <= rows; r++ {
			i := lo + r - 1
			out := fn(i, window[r-1], window[r], window[r+1])
			if out != nil {
				for j := 1; j < n-1; j++ {
					ctx.StoreF(dst.At(i, j), out[j])
				}
			}
		}
	})
}

// SelfSchedule runs body(i) for every i in [0, limit), distributing
// iterations over the PEs with a fetch-and-add ticket counter — the
// paper's §2.2 shared-array-index idiom. counter must be fresh (zero).
func SelfSchedule(ctx *pe.Ctx, counter int64, limit int, body func(i int)) {
	ctx.Compute(CostLoop)
	for {
		i := ctx.FetchAdd(counter, 1)
		if i >= int64(limit) {
			return
		}
		body(int(i))
	}
}
