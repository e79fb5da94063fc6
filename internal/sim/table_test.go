package sim

import (
	"encoding/binary"
	"testing"
)

// homedAt returns n keys, the first from from up, whose home in a table
// of size slots is slot.
func homedAt(n, size, slot int, from uint64) []uint64 {
	var probe Table[int]
	probe.Reserve(size)
	var keys []uint64
	for k := from; len(keys) < n; k++ {
		if probe.home(k) == slot {
			keys = append(keys, k)
		}
	}
	return keys
}

// tablePool returns the keys a FuzzTable script picks from by index: 0;
// then, for each table size from 8 to 64 slots, twelve keys at 1 + 12·s
// for the s-th size — six homed at its second-to-last slot, whose probe
// run wraps past the end, two homed at slot 1, which that run displaces,
// and four homed at its middle slot; then spread keys of the pe<<32|seq
// form request IDs take.
func tablePool() []uint64 {
	pool := []uint64{0}
	for _, size := range []int{8, 16, 32, 64} {
		pool = append(pool, homedAt(6, size, size-2, 1)...)
		pool = append(pool, homedAt(2, size, 1, 1)...)
		pool = append(pool, homedAt(4, size, size/2, 1<<32)...)
	}
	r := NewRand(99)
	for range 16 {
		pool = append(pool, uint64(r.Intn(64))<<32|uint64(1+r.Intn(1000)))
	}
	return pool
}

// checkTable holds tab against the oracle: the same mapping, the count
// right, empty slots holding the zero value, and every member reachable
// from its home — no empty slot between where its probe starts and where
// it sits, which is what Del's backward shift must keep true.
func checkTable(t *testing.T, tab *Table[int], want map[uint64]int) {
	t.Helper()
	for k, v := range want {
		if got := tab.Get(k); got != v {
			t.Fatalf("Get(%#x) = %d, oracle %d", k, got, v)
		}
	}
	if got := tab.Get(0); got != 0 {
		t.Fatalf("Get(0) = %d, want 0", got)
	}
	if size := len(tab.slots); size != 0 && (size < 8 || size&(size-1) != 0 || tab.mask != size-1) {
		t.Fatalf("%d slots, mask %#x: want a power of two of at least 8", size, tab.mask)
	}
	held := 0
	for j, sl := range tab.slots {
		if sl.key == 0 {
			if sl.val != 0 {
				t.Fatalf("empty slot %d holds %d", j, sl.val)
			}
			continue
		}
		held++
		if v, ok := want[sl.key]; !ok || v != sl.val {
			t.Fatalf("slot %d maps %#x to %d, oracle %d (held %v)", j, sl.key, sl.val, v, ok)
		}
		for i := tab.home(sl.key); i != j; i = (i + 1) & tab.mask {
			if tab.slots[i].key == 0 {
				t.Fatalf("%#x sits in slot %d past empty slot %d of its probe run", sl.key, j, i)
			}
		}
	}
	if held != len(want) || tab.Len() != len(want) {
		t.Fatalf("%d slots filled, Len %d, oracle %d", held, tab.Len(), len(want))
	}
}

// FuzzTable runs a script of operations on a Table and on a Go map and
// holds the two to the same mapping after every step (checkTable).
//
// A script is a sequence of operations of two bytes each. The first
// byte's low three bits pick Put (0, 1), Update (2), Get (3), Del (4, 5),
// Reserve (6) or Put (7); the second picks the key from tablePool by
// index, unless bit 3 of the first says that an 8-byte little-endian key
// follows. Reserve asks for sixteen times the first byte's top four bits
// in slots. A Put grows the table first only when it would leave no
// empty slot, so probe runs grow long and wrap. Every value written is
// the step's number, so a read from the wrong slot shows.
//
// The corpus under testdata/fuzz/FuzzTable holds the backward shift of a
// wrapped probe run in a 16-slot table, growth across doublings, churn
// over clustered keys, key 0, and the zero Table.
func FuzzTable(f *testing.F) {
	pool := tablePool()
	f.Fuzz(func(t *testing.T, script []byte) {
		var tab Table[int]
		want := map[uint64]int{}
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			c := script[0]
			script = script[1:]
			return c
		}
		for step := 1; len(script) > 0; step++ {
			op := next()
			k := pool[int(next())%len(pool)]
			if op&8 != 0 && len(script) >= 8 {
				k = binary.LittleEndian.Uint64(script)
				script = script[8:]
			}
			switch op & 7 {
			case 0, 1, 7:
				if tab.Len()+1 >= tab.Slots() {
					tab.Reserve(2 * (tab.Len() + 1))
				}
				tab.Put(k, step)
				if k != 0 {
					want[k] = step
				}
			case 2:
				_, held := want[k]
				if got := tab.Update(k, step); got != held {
					t.Fatalf("step %d: Update(%#x) = %v, oracle holds it: %v", step, k, got, held)
				}
				if held {
					want[k] = step
				}
			case 3:
				if got := tab.Get(k); got != want[k] {
					t.Fatalf("step %d: Get(%#x) = %d, oracle %d", step, k, got, want[k])
				}
			case 4, 5:
				tab.Del(k)
				delete(want, k)
			case 6:
				room := 16 * int(op>>4)
				tab.Reserve(room)
				if tab.Slots() < room {
					t.Fatalf("step %d: Reserve(%d) left %d slots", step, room, tab.Slots())
				}
			}
			checkTable(t, &tab, want)
		}
	})
}
