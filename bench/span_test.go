package main

import (
	"reflect"
	"testing"
)

// A layer's self time is its span minus the part its children cover:
// nested children subtract from their own parent only, siblings add up,
// and a child is clipped to the parent's interval.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},   // sibling 1
		{Name: "a.x", Start: 15, End: 25, Parent: 1}, // nested under a
		{Name: "b", Start: 40, End: 70, Parent: 0},   // sibling 2, adjacent to a
		{Name: "late", Start: 90, End: 120, Parent: 0},
		{Name: "open", Start: 50, End: 0, Parent: 3}, // never closed
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 30 - 10, 30 - 10, 10, 30, 30, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestFoldAndMerge(t *testing.T) {
	r := newSpanRec()
	for op := 0; op < 2; op++ {
		r.add("op", -1, 0, 100)
		r.add("layer", 0, 10, 30)
		r.add("layer", 0, 50, 60)
		r.fold()
	}
	if r.self["op"] != 140 || r.self["layer"] != 60 || r.count["layer"] != 4 || r.count["op"] != 2 {
		t.Errorf("folded totals: self=%v count=%v", r.self, r.count)
	}
	if len(r.spans) != 0 || len(r.raw) != 6 {
		t.Errorf("after fold: %d open spans, %d retained, want 0 and 6", len(r.spans), len(r.raw))
	}
	// Retained spans keep their parent links and op ids across folds.
	if s := r.raw[4]; s.Parent != 3 || s.Op != 1 {
		t.Errorf("retained span = %+v, want parent 3 of op 1", s)
	}
	if got := r.ms("layer"); got != 15e-6 {
		t.Errorf("mean self time of layer = %v ms, want 15e-6", got)
	}

	sum := newSpanRec()
	sum.merge(r)
	sum.merge(r)
	if sum.self["op"] != 280 || sum.count["layer"] != 8 || len(sum.raw) != 12 || sum.raw[10].Parent != 9 {
		t.Errorf("merged: self=%v count=%v raw=%d", sum.self, sum.count, len(sum.raw))
	}
}
