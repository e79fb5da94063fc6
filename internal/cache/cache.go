// Package cache implements the PE-local write-back cache of §3.2/§3.4:
// set-associative with LRU replacement, per-word dirty bits (only updated
// words within an evicted block are written back), and the two explicit
// operations the Ultracomputer adds for software-managed coherence —
// release (mark entries available without a central-memory update) and
// flush (force write-back of cached values).
//
// The cache is a timing-free functional model; the PE attaches latency to
// hits, misses and write-back traffic. Addresses are linear shared
// addresses (the PNI applies module hashing after the cache).
package cache

import (
	"fmt"
	"math/bits"

	"ultracomputer/internal/obs"
	"ultracomputer/internal/sim"
)

// Config sizes the cache.
type Config struct {
	// Sets is the number of sets; must be a power of two.
	Sets int
	// Ways is the associativity.
	Ways int
	// BlockWords is the line size in words; must be a power of two.
	BlockWords int
}

// DefaultConfig is a small but realistic shape: 64 sets × 2 ways × 4-word
// blocks = 512 words.
var DefaultConfig = Config{Sets: 64, Ways: 2, BlockWords: 4}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Sets < 1 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: Sets = %d, need a power of two", c.Sets)
	}
	if c.Ways < 1 {
		return fmt.Errorf("cache: Ways = %d, need >= 1", c.Ways)
	}
	if c.BlockWords < 1 || c.BlockWords&(c.BlockWords-1) != 0 {
		return fmt.Errorf("cache: BlockWords = %d, need a power of two", c.BlockWords)
	}
	return nil
}

// WriteBack is one dirty word that must be written to central memory.
type WriteBack struct {
	Addr  int64
	Value int64
}

// Stats counts cache activity.
type Stats struct {
	Hits       sim.Counter
	Misses     sim.Counter
	WriteBacks sim.Counter // words written back
	Evictions  sim.Counter // lines evicted
	Releases   sim.Counter // lines released
	Flushes    sim.Counter // lines flushed
}

type line struct {
	valid bool
	tag   int64
	words []int64
	dirty []bool
	lru   int64
}

// Cache is one PE's private cache.
type Cache struct {
	cfg   Config
	lines []line // set i is lines[i*Ways : (i+1)*Ways]
	// log2 of BlockWords and of Sets, for locate
	blockShift, setShift uint
	clock                int64
	stats                Stats

	// subs is the audience of the owning PE's machine, out where the
	// cache's events go and pe whom they name (Observe).
	subs *obs.Subs
	out  obs.Probe
	pe   int

	// Write-back scratch reused across calls so the cached-ISA cycle
	// path stays allocation-free in steady state. A slice returned by
	// Fill is valid until the next Fill; one returned by Flush until the
	// next Flush. The two are distinct because the ISA layer holds
	// Fill's result across cycles while draining it and may Flush into
	// the same queue meanwhile.
	fillWB  []WriteBack
	flushWB []WriteBack
}

// noSubs is the empty, never written audience of a cache outside a PE.
var noSubs obs.Subs

// Observe points the cache's hit/miss/write-back events, attributed to
// PE pe, at the sink of the PE that owns it (pe.Env.ObserveCache). The
// cache is a timing-free functional model, so its events carry
// Cycle = -1; recorders preserve their order relative to the surrounding
// timed events.
func (c *Cache) Observe(subs *obs.Subs, out obs.Probe, pe int) {
	c.subs, c.out, c.pe = subs, out, pe
}

// New builds a cache; it panics on an invalid configuration.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// Three slabs, not an allocation per set and two per line: a machine
	// builds one cache per PE. Each line's slices are capped at its own
	// block, so nothing can grow into a neighbour's.
	bw := cfg.BlockWords
	lines := make([]line, cfg.Sets*cfg.Ways)
	words := make([]int64, len(lines)*bw)
	dirty := make([]bool, len(lines)*bw)
	for i := range lines {
		lines[i].words = words[i*bw : (i+1)*bw : (i+1)*bw]
		lines[i].dirty = dirty[i*bw : (i+1)*bw : (i+1)*bw]
	}
	return &Cache{
		cfg: cfg, lines: lines, subs: &noSubs,
		blockShift: uint(bits.TrailingZeros(uint(bw))),
		setShift:   uint(bits.TrailingZeros(uint(cfg.Sets))),
	}
}

// Stats exposes the activity counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// Config returns the cache shape.
func (c *Cache) Config() Config { return c.cfg }

// locate splits address a into its set, tag and word offset. Sets and
// BlockWords are powers of two (Validate), so a shift and a mask do it;
// a negative address keeps the division, which rounds toward zero, and
// so the index panic it always had.
func (c *Cache) locate(a int64) (set int, tag int64, off int) {
	if a < 0 {
		block := a / int64(c.cfg.BlockWords)
		return int(block % int64(c.cfg.Sets)), block / int64(c.cfg.Sets), int(a % int64(c.cfg.BlockWords))
	}
	block := a >> c.blockShift
	return int(block & int64(c.cfg.Sets-1)), block >> c.setShift, int(a & int64(c.cfg.BlockWords-1))
}

func (c *Cache) find(set int, tag int64) *line {
	ways := c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
	for w := range ways {
		l := &ways[w]
		if l.valid && l.tag == tag {
			return l
		}
	}
	return nil
}

// access is Read (store false) and Write (store true, v the value to
// put): it ages the LRU clock, counts and reports the hit or miss, and on
// a hit returns the word at a after the store, if any. A quiet miss
// changes nothing (ReadHit, WriteHit).
func (c *Cache) access(a int64, store bool, v int64, quiet bool) (int64, bool) {
	set, tag, off := c.locate(a)
	l := c.find(set, tag)
	if l == nil && quiet {
		return 0, false
	}
	c.clock++
	if l != nil {
		l.lru = c.clock
		if store {
			l.words[off] = v
			l.dirty[off] = true
		}
		v = l.words[off]
		c.stats.Hits.Inc()
	} else {
		c.stats.Misses.Inc()
	}
	// A hit and a miss have one audience, so the guard is a constant mask.
	if to := c.subs.For(obs.KindCacheHit, false); to != 0 {
		kind := obs.KindCacheMiss
		if l != nil {
			kind = obs.KindCacheHit
		}
		c.out.Emit(obs.Event{
			To: to, Cycle: -1, Kind: kind, PE: int32(c.pe), Stage: -1, MM: -1, Copy: -1,
			Value: a,
		})
	}
	return v, l != nil
}

// Read looks up address a. On a hit it returns the cached value; on a
// miss the caller must fetch the block (Block(a) identifies it), call
// Fill, and retry.
func (c *Cache) Read(a int64) (v int64, hit bool) { return c.access(a, false, 0, false) }

// ReadHit is Read on a hit; a miss leaves the cache untouched — no count,
// no event, no LRU tick — so the caller may make the access later with
// Read.
func (c *Cache) ReadHit(a int64) (v int64, hit bool) { return c.access(a, false, 0, true) }

// WriteHit is Write on a hit; a miss leaves the cache untouched.
func (c *Cache) WriteHit(a, v int64) (hit bool) {
	_, hit = c.access(a, true, v, true)
	return hit
}

// Write updates address a in place on a hit (write-back: no central
// memory traffic, §3.4). On a miss the caller must fetch the block
// (write-allocate), call Fill, and retry.
func (c *Cache) Write(a, v int64) (hit bool) {
	_, hit = c.access(a, true, v, false)
	return hit
}

// Block reports the first address of the block containing a, the unit of
// fetch on a miss.
func (c *Cache) Block(a int64) int64 {
	if a < 0 {
		return a / int64(c.cfg.BlockWords) * int64(c.cfg.BlockWords)
	}
	return a &^ int64(c.cfg.BlockWords-1)
}

// BlockWords reports the line size in words.
func (c *Cache) BlockWords() int { return c.cfg.BlockWords }

// Fill installs the block starting at blockAddr (length BlockWords,
// fetched from central memory) and returns the dirty words of the line it
// evicted, which the caller must write to central memory. Cache-generated
// write-back traffic can always be pipelined (§3.4). The returned slice
// aliases receiver-owned scratch and is valid until the next Fill.
func (c *Cache) Fill(blockAddr int64, words []int64) []WriteBack {
	if int(blockAddr)%c.cfg.BlockWords != 0 {
		panic(fmt.Sprintf("cache: Fill at unaligned address %d", blockAddr))
	}
	if len(words) != c.cfg.BlockWords {
		panic(fmt.Sprintf("cache: Fill with %d words, want %d", len(words), c.cfg.BlockWords))
	}
	set, tag, _ := c.locate(blockAddr)
	c.clock++
	// Victim: an invalid way if any, else LRU.
	ways := c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
	victim := &ways[0]
	for w := range ways {
		l := &ways[w]
		if !l.valid {
			victim = l
			break
		}
		if l.lru < victim.lru {
			victim = l
		}
	}
	var wbs []WriteBack
	if victim.valid {
		wbs = c.evict(victim, set)
	}
	victim.valid = true
	victim.tag = tag
	victim.lru = c.clock
	copy(victim.words, words)
	for i := range victim.dirty {
		victim.dirty[i] = false
	}
	return wbs
}

// evict collects the dirty words of l into the fill scratch and
// invalidates it.
func (c *Cache) evict(l *line, set int) []WriteBack {
	wbs := c.fillWB[:0]
	base := (l.tag*int64(c.cfg.Sets) + int64(set)) * int64(c.cfg.BlockWords)
	for i, d := range l.dirty {
		if d {
			// The scratch stops growing at BlockWords entries.
			wbs = append(wbs, WriteBack{Addr: base + int64(i), Value: l.words[i]})
			c.wroteBack(base + int64(i))
		}
	}
	l.valid = false
	c.stats.Evictions.Inc()
	c.fillWB = wbs[:0]
	return wbs
}

// wroteBack counts and reports the dirty word at a leaving the cache.
func (c *Cache) wroteBack(a int64) {
	c.stats.WriteBacks.Inc()
	if to := c.subs.For(obs.KindCacheWriteBack, false); to != 0 {
		c.out.Emit(obs.Event{
			To: to, Cycle: -1, Kind: obs.KindCacheWriteBack, PE: int32(c.pe),
			Stage: -1, MM: -1, Copy: -1, Value: a,
		})
	}
}

// Release marks every cached entry in [lo, hi) available without a
// central-memory update (§3.4): the data is discarded even if dirty. Used
// for dead private variables and to end a read-only sharing period.
func (c *Cache) Release(lo, hi int64) {
	bw := int64(c.cfg.BlockWords)
	for set := 0; set < c.cfg.Sets; set++ {
		ways := c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
		for w := range ways {
			l := &ways[w]
			if !l.valid {
				continue
			}
			base := (l.tag*int64(c.cfg.Sets) + int64(set)) * bw
			if base+bw > lo && base < hi {
				l.valid = false
				c.stats.Releases.Inc()
			}
		}
	}
}

// Flush forces a write-back of every dirty cached word in [lo, hi),
// returning the words to write to central memory. Lines remain valid and
// clean — used before spawning subtasks that will read the data and
// before task switches (§3.4). The returned slice aliases receiver-owned
// scratch and is valid until the next Flush.
func (c *Cache) Flush(lo, hi int64) []WriteBack {
	wbs := c.flushWB[:0]
	bw := int64(c.cfg.BlockWords)
	for set := 0; set < c.cfg.Sets; set++ {
		ways := c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
		for w := range ways {
			l := &ways[w]
			if !l.valid {
				continue
			}
			base := (l.tag*int64(c.cfg.Sets) + int64(set)) * bw
			if base+bw <= lo || base >= hi {
				continue
			}
			touched := false
			for i, d := range l.dirty {
				if d {
					wbs = append(wbs, WriteBack{Addr: base + int64(i), Value: l.words[i]})
					l.dirty[i] = false
					c.wroteBack(base + int64(i))
					touched = true
				}
			}
			if touched {
				c.stats.Flushes.Inc()
			}
		}
	}
	c.flushWB = wbs[:0]
	return wbs
}

// FlushAll flushes the entire cache.
func (c *Cache) FlushAll() []WriteBack { return c.Flush(0, 1<<62) }

// Contains reports whether address a currently hits, without touching LRU
// state or statistics.
func (c *Cache) Contains(a int64) bool {
	set, tag, _ := c.locate(a)
	return c.find(set, tag) != nil
}
