package pe

import (
	"math"

	"ultracomputer/internal/cache"
)

// CachedMem wires a write-back cache (internal/cache) between a program
// and central memory, implementing the §3.2/§3.4 design end to end: hits
// cost one private reference; misses fetch the whole block through the
// network (prefetched through locked registers) and write back any dirty
// words of the evicted line; Flush and Release are the paper's explicit
// cache-management operations.
//
// Coherence is the software's responsibility, exactly as in the paper:
// shared read-write data must not be cached except during phases
// guaranteed read-only or exclusive, bracketed by Flush/Release (§3.4's
// task-spawn protocol). The Ctx's plain Load/Store remain available for
// uncached shared access.
type CachedMem struct {
	ctx *Ctx
	c   *cache.Cache
}

// NewCache attaches a private write-back cache to this PE.
func (c *Ctx) NewCache(cfg cache.Config) *CachedMem {
	m := &CachedMem{ctx: c, c: cache.New(cfg)}
	c.core.owner.observeCache(m.c)
	return m
}

// Stats exposes hit/miss/write-back counters.
func (m *CachedMem) Stats() *cache.Stats { return m.c.Stats() }

// Load reads addr through the cache.
func (m *CachedMem) Load(addr int64) int64 {
	if v, hit := m.c.Read(addr); hit {
		m.ctx.Private(1)
		return v
	}
	m.fetchBlock(addr)
	v, hit := m.c.Read(addr)
	if !hit {
		panic("pe: cache miss immediately after fill")
	}
	return v
}

// Store writes addr through the cache (write-back with write-allocate):
// a hit generates no central-memory traffic.
func (m *CachedMem) Store(addr, v int64) {
	if m.c.Write(addr, v) {
		m.ctx.Private(1)
		return
	}
	m.fetchBlock(addr)
	if !m.c.Write(addr, v) {
		panic("pe: cache write miss immediately after fill")
	}
}

// LoadF reads a float64 through the cache.
func (m *CachedMem) LoadF(addr int64) float64 {
	return math.Float64frombits(uint64(m.Load(addr)))
}

// StoreF writes a float64 through the cache.
func (m *CachedMem) StoreF(addr int64, v float64) {
	m.Store(addr, int64(math.Float64bits(v)))
}

// fetchBlock reads the block containing addr from central memory
// (pipelined loads), installs it, and issues the evicted line's dirty
// words as pipelined write-backs ("cache generated traffic can always be
// pipelined", §3.4).
func (m *CachedMem) fetchBlock(addr int64) {
	base := m.c.Block(addr)
	n := m.c.BlockWords()
	handles := make([]*Handle, n)
	for i := 0; i < n; i++ {
		handles[i] = m.ctx.LoadAsync(base + int64(i))
	}
	words := make([]int64, n)
	for i := 0; i < n; i++ {
		words[i] = handles[i].Wait()
	}
	for _, wb := range m.c.Fill(base, words) {
		m.ctx.Store(wb.Addr, wb.Value)
	}
}

// Flush writes every dirty cached word in [lo, hi) back to central
// memory and waits for the write-backs to complete (the §3.4 flush used
// before spawning subtasks and at task switches). Lines stay valid and
// clean.
func (m *CachedMem) Flush(lo, hi int64) {
	for _, wb := range m.c.Flush(lo, hi) {
		m.ctx.Store(wb.Addr, wb.Value)
	}
	m.ctx.Fence()
}

// FlushAll flushes the entire cache.
func (m *CachedMem) FlushAll() { m.Flush(0, 1<<62) }

// Release marks every cached entry in [lo, hi) available without a
// central-memory update (§3.4): dead private data and the end of a
// read-only sharing period.
func (m *CachedMem) Release(lo, hi int64) {
	m.c.Release(lo, hi)
	m.ctx.Compute(1)
}

// ReleaseAll releases the entire cache.
func (m *CachedMem) ReleaseAll() { m.Release(0, 1<<62) }

// Contains reports whether addr currently hits (no side effects).
func (m *CachedMem) Contains(addr int64) bool { return m.c.Contains(addr) }
