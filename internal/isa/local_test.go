package isa_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ultracomputer/internal/isa"
)

// tickToHalt runs a program that touches only registers and private
// memory; such instructions never consult the environment.
func tickToHalt(c *isa.Core) {
	for !c.Halted() {
		c.Tick(nil)
	}
}

// panicText runs f and returns what it panicked with ("" if it returned).
func panicText(f func()) (text string) {
	defer func() {
		if r := recover(); r != nil {
			text = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestLocalMemoryContract pins what private memory promises whatever
// stores it: every word of [0, localWords) reads 0 until stored to, a
// store changes its own word only, and no address outside the range is
// ever read or written — at sizes below, at, across and far beyond 512
// words, a multiple of it or not.
func TestLocalMemoryContract(t *testing.T) {
	for _, words := range []int{1, 64, 513, 4096, 4097, 100_000} {
		t.Run(fmt.Sprint(words), func(t *testing.T) {
			var addrs []int
			for _, a := range []int{0, 511, 512, words - 1} {
				if a < words && (len(addrs) == 0 || a > addrs[len(addrs)-1]) {
					addrs = append(addrs, a)
				}
			}

			// r1..: lw before any sw (over a non-zero register); then
			// sw 1000+i; then lw back into r9...
			var src strings.Builder
			for i, a := range addrs {
				fmt.Fprintf(&src, "\tli r%d, 77\n\tlw r%d, %d(r0)\n", 1+i, 1+i, a)
			}
			for i, a := range addrs {
				fmt.Fprintf(&src, "\tli r%d, %d\n\tsw r%d, %d(r0)\n", 5+i, 1000+i, 5+i, a)
			}
			for i, a := range addrs {
				fmt.Fprintf(&src, "\tlw r%d, %d(r0)\n", 9+i, a)
			}
			src.WriteString("\thalt\n")
			c := isa.NewCore(isa.MustAssemble(src.String()), words)

			if n := testing.AllocsPerRun(1, func() {
				for a := 0; a < words; a++ {
					if v := c.Local(a); v != 0 {
						t.Fatalf("fresh local[%d] = %d, want 0", a, v)
					}
				}
			}); n != 0 {
				t.Errorf("reading %d fresh words allocated %v times", words, n)
			}

			tickToHalt(c)
			want := make(map[int]int64)
			for i, a := range addrs {
				if v := c.Reg(1 + i); v != 0 {
					t.Errorf("lw %d before any sw = %d, want 0", a, v)
				}
				if v := c.Reg(9 + i); v != int64(1000+i) {
					t.Errorf("lw %d after sw = %d, want %d", a, v, 1000+i)
				}
				want[a] = int64(1000 + i)
			}
			for a := 0; a < words; a++ {
				if v := c.Local(a); v != want[a] {
					t.Errorf("local[%d] = %d, want %d", a, v, want[a])
				}
			}

			for _, bad := range []int{-1, words} {
				// li is pc 0, the access pc 1.
				msg := fmt.Sprintf("isa: local address %d out of [0,%d) at pc 1", bad, words)
				for _, op := range []string{"lw", "sw"} {
					prog := isa.MustAssemble(fmt.Sprintf("\tli r1, %d\n\t%s r2, 0(r1)\n\thalt\n", bad, op))
					if got := panicText(func() { tickToHalt(isa.NewCore(prog, words)) }); got != msg {
						t.Errorf("%s at %d: panic %q, want %q", op, bad, got, msg)
					}
				}
				if got := panicText(func() { c.Local(bad) }); !strings.HasPrefix(got, fmt.Sprintf("isa: local address %d out of [0,%d)", bad, words)) {
					t.Errorf("Local(%d): panic %q, want the local-address range text", bad, got)
				}
			}
		})
	}
}

// TestNewCoreAllocBudget: a core's private memory is address space until
// stored to, so building one costs the interpreter and its page table —
// not localWords × 8 B (32 KiB at the default 4096 words, 8 MiB at 1 << 20).
func TestNewCoreAllocBudget(t *testing.T) {
	prog := isa.MustAssemble("\thalt\n")
	for _, tc := range []struct {
		words  int
		budget uint64
	}{
		{4096, 1 << 10},
		{1 << 20, 20 << 10},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := isa.NewCore(prog, tc.words)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.budget {
			t.Errorf("NewCore(prog, %d) allocates %d bytes, budget %d", tc.words, got, tc.budget)
		}
		runtime.KeepAlive(c)
	}
}
