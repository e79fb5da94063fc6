package reqtrace

import (
	"testing"

	"ultracomputer/internal/obs"
	"ultracomputer/internal/sim"
)

// checkTable holds tab against the oracle: the same mapping, the count
// right, empty slots empty, and every member reachable from its home —
// no empty slot between where its probe starts and where it sits, which
// is what backward-shift deletion must keep true.
func checkTable(t *testing.T, tab *spanTable, want map[uint64]*Span, what string) {
	t.Helper()
	for id, s := range want {
		if got := tab.get(id); got != s {
			t.Fatalf("%s: get(%#x) = %p, oracle %p", what, id, got, s)
		}
	}
	held := 0
	for j, sl := range tab.slots {
		if sl.id == 0 {
			if sl.s != nil {
				t.Fatalf("%s: empty slot %d holds a span", what, j)
			}
			continue
		}
		held++
		if want[sl.id] != sl.s {
			t.Fatalf("%s: slot %d maps %#x to a span the oracle does not", what, j, sl.id)
		}
		for i := tab.home(sl.id); i != j; i = (i + 1) & tab.mask {
			if tab.slots[i].id == 0 {
				t.Fatalf("%s: %#x sits in slot %d past empty slot %d of its probe run", what, sl.id, j, i)
			}
		}
	}
	if held != len(want) {
		t.Fatalf("%s: table holds %d, oracle %d", what, held, len(want))
	}
	if tab.get(0) != nil {
		t.Fatalf("%s: get(0) found a span", what)
	}
}

// homedAt returns n IDs, the first from from up, whose home in a table
// of size slots is slot.
func homedAt(n, size, slot int, from uint64) []uint64 {
	var probe spanTable
	probe.reserve(size)
	var ids []uint64
	for id := from; len(ids) < n; id++ {
		if probe.home(id) == slot {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestSpanTableBackwardShift: six IDs homed at slot 14 of a 16-slot table
// fill 14, 15 and wrap to 0..3; one homed at slot 1 is pushed to 4.
// Deleting from the middle of the run must pull every later member back
// — across the end of the table, and the slot-1 member to slot 3 — and
// leave no hole any lookup could stop at.
func TestSpanTableBackwardShift(t *testing.T) {
	var tab spanTable
	tab.reserve(16)
	want := map[uint64]*Span{}
	ids := append(homedAt(6, 16, 14, 1), homedAt(1, 16, 1, 1)...)
	for _, id := range ids {
		s := &Span{ID: id}
		tab.put(id, s)
		want[id] = s
	}
	if tab.slots[4].id != ids[6] {
		t.Fatalf("slot 4 holds %#x, want the slot-1 ID %#x pushed past the wrapped run", tab.slots[4].id, ids[6])
	}
	checkTable(t, &tab, want, "filled")
	for _, k := range []int{1, 3, 0, 6, 5, 2, 4} {
		tab.del(ids[k])
		delete(want, ids[k])
		checkTable(t, &tab, want, "after deleting one")
		tab.del(ids[k]) // absent: a no-op
		checkTable(t, &tab, want, "after deleting it again")
	}
}

// TestSpanTableMatchesMap runs seeded put/get/del sequences against a map
// oracle. The keys are drawn from IDs forced into one probe run, IDs homed
// at the last slot (their runs wrap past the end), random pe<<32|seq IDs,
// and 0; the table grows mid-sequence whenever a put would make it more
// than half full, as the tracer's reserve does, and sometimes beyond.
func TestSpanTableMatchesMap(t *testing.T) {
	var pool []uint64
	for _, size := range []int{8, 16, 32, 64} {
		pool = append(pool, homedAt(5, size, size/2, 1)...)
		pool = append(pool, homedAt(5, size, size-1, 1<<32)...)
	}
	r := sim.NewRand(99)
	for len(pool) < 60 {
		pool = append(pool, uint64(r.Intn(64))<<32|uint64(1+r.Intn(1000)))
	}
	pool = append(pool, 0)
	for seed := uint64(1); seed <= 50; seed++ {
		r := sim.NewRand(seed)
		var tab spanTable
		tab.reserve(0)
		want := map[uint64]*Span{}
		for step := 0; step < 1500; step++ {
			id := pool[r.Intn(len(pool))]
			switch u := r.Intn(20); {
			case u < 9:
				if 2*(len(want)+1) > len(tab.slots) {
					tab.reserve(2 * (len(want) + 1))
				}
				s := &Span{ID: id}
				tab.put(id, s)
				if id != 0 {
					want[id] = s
				}
			case u < 17:
				tab.del(id)
				delete(want, id)
			case u < 19:
				if got := tab.get(id); got != want[id] {
					t.Fatalf("seed %d step %d: get(%#x) = %p, oracle %p", seed, step, id, got, want[id])
				}
			default:
				if len(tab.slots) < 256 {
					tab.reserve(2 * len(tab.slots))
				}
			}
			checkTable(t, &tab, want, "sequence")
		}
	}
}

// TestFreshTracerDropsUnknown: before it has opened a span the tracer's
// table is already there, and a hop of an ID it does not hold — 0
// included — is counted dropped.
func TestFreshTracerDropsUnknown(t *testing.T) {
	tr := New(Config{Rate: 1})
	for _, id := range []uint64{0, 7, 1 << 32} {
		tr.Emit(ev(obs.KindStageArrive, 1, id))
	}
	if tr.Dropped() != 3 || tr.Active() != 0 {
		t.Errorf("dropped %d, active %d; want 3 and 0", tr.Dropped(), tr.Active())
	}
}
