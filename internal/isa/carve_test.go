package isa

import (
	"slices"
	"testing"

	"ultracomputer/internal/cache"
)

// dirtyAll fills every line of c with the blocks from 0 up and stores
// tag+address into every word, so that every word is dirty.
func dirtyAll(c *cache.Cache, cfg cache.Config, tag int64) {
	words := cfg.Sets * cfg.Ways * cfg.BlockWords
	block := make([]int64, cfg.BlockWords)
	for a := int64(0); a < int64(words); a++ {
		if !c.Write(a, tag+a) {
			c.Fill(c.Block(a), block, nil)
			c.Write(a, tag+a)
		}
	}
}

// TestWriteBackSpillKeepsOrder is TestQueueSpillKeepsOrder's shape for a
// core's write-back room: a flush larger than the room appends past the
// core's window into an array of its own, in the order the cache produced
// the write-backs (set, way, word), and never writes a neighbour's slots.
func TestWriteBackSpillKeepsOrder(t *testing.T) {
	cfg := cache.Config{Sets: 32, Ways: 2, BlockWords: 4} // 256 words, over the room
	prog := &Program{}
	cores := NewCores([]*Program{prog, prog, prog}, 16, &cfg)
	for i := range cores {
		if got := cap(cores[i].cc.wb); got != wbRoom {
			t.Fatalf("core %d: write-back window of %d, want %d", i, got, wbRoom)
		}
		dirtyAll(cores[i].cc.c, cfg, int64(i)<<20)
	}
	first, mid, last := cores[0].cc, cores[1].cc, cores[2].cc
	first.flush(0, 16)
	last.flush(0, 16)
	before := [2][]cache.WriteBack{slices.Clone(first.wb), slices.Clone(last.wb)}
	window := &mid.wb[:1][0]

	ref := cache.New(cfg)
	dirtyAll(ref, cfg, 1<<20)
	want := ref.FlushAll(nil)
	mid.flush(0, 1<<62)
	if &mid.wb[0] == window {
		t.Fatal("a flush past the window still starts in the slab")
	}
	if !slices.Equal(mid.wb, want) {
		t.Fatalf("spilled flush queued %d write-backs out of order:\n%v\nwant\n%v", len(mid.wb), mid.wb, want)
	}
	if !slices.Equal(first.wb, before[0]) || !slices.Equal(last.wb, before[1]) {
		t.Fatal("a spilling flush wrote a neighbour's write-back slots")
	}
}

// TestWriteBackRoomIsCapped: a core's write-back window is the cache's
// capacity when that is small and wbRoom however large the cache grows —
// a 1024×8×16 cache would otherwise cost 2 MiB of window a PE.
func TestWriteBackRoomIsCapped(t *testing.T) {
	for _, c := range []struct {
		cfg  cache.Config
		room int
	}{
		{cache.Config{Sets: 2, Ways: 2, BlockWords: 4}, 16},
		{cache.Config{Sets: 16, Ways: 2, BlockWords: 4}, wbRoom},
		{cache.Config{Sets: 1024, Ways: 8, BlockWords: 16}, wbRoom},
	} {
		core := NewCoreWithCache(&Program{}, 16, c.cfg)
		if got := cap(core.cc.wb); got != c.room {
			t.Errorf("%+v: write-back window of %d, want %d", c.cfg, got, c.room)
		}
		if got := len(core.cc.words); got != c.cfg.BlockWords {
			t.Errorf("%+v: fill window of %d words, want %d", c.cfg, got, c.cfg.BlockWords)
		}
	}
}
