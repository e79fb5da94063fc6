package cache

import (
	"testing"
	"testing/quick"
)

func small() *Cache { return New(Config{Sets: 4, Ways: 2, BlockWords: 4}) }

// fill fetches the block containing a from backing and installs it,
// applying any write-backs to backing — a one-line memory protocol.
func fill(c *Cache, backing map[int64]int64, a int64) {
	base := c.Block(a)
	words := make([]int64, c.BlockWords())
	for i := range words {
		words[i] = backing[base+int64(i)]
	}
	for _, wb := range c.Fill(base, words) {
		backing[wb.Addr] = wb.Value
	}
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{Sets: 3, Ways: 1, BlockWords: 4},
		{Sets: 4, Ways: 0, BlockWords: 4},
		{Sets: 4, Ways: 1, BlockWords: 3},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	if err := DefaultConfig.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestReadMissFillHit(t *testing.T) {
	c := small()
	backing := map[int64]int64{10: 42, 11: 43}
	if _, hit := c.Read(10); hit {
		t.Fatal("cold cache hit")
	}
	fill(c, backing, 10)
	v, hit := c.Read(10)
	if !hit || v != 42 {
		t.Fatalf("Read(10) = (%d, %v), want (42, true)", v, hit)
	}
	// Same block: address 11 also hits now.
	v, hit = c.Read(11)
	if !hit || v != 43 {
		t.Fatalf("Read(11) = (%d, %v), want (43, true)", v, hit)
	}
	if c.Stats().Hits.Value() != 2 || c.Stats().Misses.Value() != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1",
			c.Stats().Hits.Value(), c.Stats().Misses.Value())
	}
}

func TestWriteBackOnlyDirtyWords(t *testing.T) {
	c := small()
	backing := map[int64]int64{}
	fill(c, backing, 0)
	if !c.Write(1, 99) {
		t.Fatal("write after fill missed")
	}
	// Evict block 0 by filling two conflicting blocks (2 ways): blocks
	// at addresses 0, 64, 128 share set 0 (4 sets x 4 words = stride 16).
	fill(c, backing, 16)
	fill(c, backing, 32)
	// Block 0 evicted; only word 1 was dirty.
	if backing[1] != 99 {
		t.Fatalf("backing[1] = %d, want 99", backing[1])
	}
	if c.Stats().WriteBacks.Value() != 1 {
		t.Fatalf("write-backs = %d, want 1 (only dirty words)", c.Stats().WriteBacks.Value())
	}
	if c.Contains(1) {
		t.Fatal("evicted block still present")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := small()
	backing := map[int64]int64{}
	// Three blocks mapping to set 0 in a 2-way cache: 0, 16, 32.
	fill(c, backing, 0)
	fill(c, backing, 16)
	c.Read(0) // touch block 0 so block 16 is LRU
	fill(c, backing, 32)
	if !c.Contains(0) {
		t.Fatal("recently used block evicted")
	}
	if c.Contains(16) {
		t.Fatal("LRU block survived")
	}
}

func TestReleaseDiscardsDirtyData(t *testing.T) {
	c := small()
	backing := map[int64]int64{5: 7}
	fill(c, backing, 5)
	c.Write(5, 1000)
	c.Release(0, 16)
	if c.Contains(5) {
		t.Fatal("released line still present")
	}
	// The dirty value must NOT have reached backing (release performs no
	// central memory update, §3.4).
	if backing[5] != 7 {
		t.Fatalf("backing[5] = %d, release must not write back", backing[5])
	}
	if c.Stats().Releases.Value() == 0 {
		t.Fatal("release not counted")
	}
}

func TestFlushWritesBackAndKeepsLines(t *testing.T) {
	c := small()
	backing := map[int64]int64{}
	fill(c, backing, 20)
	c.Write(20, 11)
	c.Write(22, 33)
	wbs := c.Flush(0, 1<<30)
	for _, wb := range wbs {
		backing[wb.Addr] = wb.Value
	}
	if backing[20] != 11 || backing[22] != 33 {
		t.Fatalf("flush wrote %v", backing)
	}
	if !c.Contains(20) {
		t.Fatal("flushed line evicted; flush must keep lines valid")
	}
	// A second flush finds nothing dirty.
	if extra := c.FlushAll(); len(extra) != 0 {
		t.Fatalf("second flush returned %v", extra)
	}
}

func TestFlushRangeIsSelective(t *testing.T) {
	c := New(Config{Sets: 8, Ways: 2, BlockWords: 4})
	backing := map[int64]int64{}
	fill(c, backing, 0)
	fill(c, backing, 100)
	c.Write(0, 1)
	c.Write(100, 2)
	wbs := c.Flush(0, 50) // only the first block's range
	if len(wbs) != 1 || wbs[0].Addr != 0 {
		t.Fatalf("selective flush returned %v", wbs)
	}
}

func TestFillPanicsOnBadArgs(t *testing.T) {
	c := small()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unaligned Fill did not panic")
			}
		}()
		c.Fill(3, make([]int64, 4))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short Fill did not panic")
			}
		}()
		c.Fill(0, make([]int64, 2))
	}()
}

// TestCacheCoherentWithBacking is a property test: under a random
// sequence of reads and writes with fill-on-miss and flush-sync, the
// cache+backing view of memory always equals a reference map.
func TestCacheCoherentWithBacking(t *testing.T) {
	f := func(ops []uint16) bool {
		c := small()
		backing := map[int64]int64{}
		ref := map[int64]int64{}
		readThrough := func(a int64) int64 {
			v, hit := c.Read(a)
			if !hit {
				fill(c, backing, a)
				v, hit = c.Read(a)
				if !hit {
					t.Fatalf("miss after fill at %d", a)
				}
			}
			return v
		}
		for i, op := range ops {
			a := int64(op % 64) // small address space forces evictions
			if i%3 == 0 {
				v := readThrough(a)
				if v != ref[a] {
					t.Logf("Read(%d) = %d, want %d", a, v, ref[a])
					return false
				}
			} else {
				val := int64(op)
				if !c.Write(a, val) {
					fill(c, backing, a)
					if !c.Write(a, val) {
						t.Fatalf("write miss after fill at %d", a)
					}
				}
				ref[a] = val
			}
		}
		// After a full flush, backing agrees with the reference
		// everywhere the program wrote.
		for _, wb := range c.FlushAll() {
			backing[wb.Addr] = wb.Value
		}
		for a, v := range ref {
			if backing[a] != v {
				t.Logf("backing[%d] = %d, want %d", a, backing[a], v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestNewAllocBudget: a cache is the Cache and three slabs (lines,
// words, dirty bits) — not an allocation per set and two per line; a
// 64-PE machine builds 64 of them per Load. Lines must still not alias
// one another.
func TestNewAllocBudget(t *testing.T) {
	cfg := Config{Sets: 16, Ways: 2, BlockWords: 4}
	if n := testing.AllocsPerRun(100, func() { New(cfg) }); n > 5 {
		t.Errorf("New(%+v) makes %v allocations, budget 5", cfg, n)
	}
	c := New(cfg)
	seen := map[*int64]bool{}
	for set := 0; set < cfg.Sets; set++ {
		ways := c.lines[set*cfg.Ways : (set+1)*cfg.Ways]
		if len(ways) != cfg.Ways {
			t.Fatalf("set %d has %d ways, want %d", set, len(ways), cfg.Ways)
		}
		for i := range ways {
			l := &ways[i]
			if len(l.words) != cfg.BlockWords || cap(l.words) != cfg.BlockWords ||
				len(l.dirty) != cfg.BlockWords || cap(l.dirty) != cfg.BlockWords {
				t.Fatalf("line slices not capped at the block: words %d/%d dirty %d/%d",
					len(l.words), cap(l.words), len(l.dirty), cap(l.dirty))
			}
			if seen[&l.words[0]] {
				t.Fatal("two lines share a block of words")
			}
			seen[&l.words[0]] = true
		}
	}
	if len(seen) != cfg.Sets*cfg.Ways {
		t.Errorf("%d distinct lines, want %d", len(seen), cfg.Sets*cfg.Ways)
	}
}
