package msg

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		Load: "Load", Store: "Store", FetchAdd: "FetchAdd",
		FetchAnd: "FetchAnd", FetchOr: "FetchOr",
		FetchMax: "FetchMax", FetchMin: "FetchMin", Swap: "Swap",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
		if !op.Valid() {
			t.Errorf("%v not Valid", op)
		}
	}
	if Op(99).Valid() {
		t.Error("Op(99) reported Valid")
	}
	if Op(99).String() != "Op(99)" {
		t.Errorf("Op(99).String() = %q", Op(99).String())
	}
}

func TestReturnsValue(t *testing.T) {
	if Store.ReturnsValue() {
		t.Error("Store must not return a value")
	}
	for _, op := range []Op{Load, FetchAdd, FetchAnd, FetchOr, FetchMax, FetchMin, Swap} {
		if !op.ReturnsValue() {
			t.Errorf("%v must return a value", op)
		}
	}
}

func TestPackets(t *testing.T) {
	if p := (&Request{Op: Load}).Packets(); p != PacketsWithoutData {
		t.Errorf("load request packets = %d, want %d", p, PacketsWithoutData)
	}
	if p := (&Request{Op: Store}).Packets(); p != PacketsWithData {
		t.Errorf("store request packets = %d, want %d", p, PacketsWithData)
	}
	if p := (&Request{Op: FetchAdd}).Packets(); p != PacketsWithData {
		t.Errorf("fetch-add request packets = %d, want %d", p, PacketsWithData)
	}
	if p := (&Reply{Op: Load}).Packets(); p != PacketsWithData {
		t.Errorf("load reply packets = %d, want %d", p, PacketsWithData)
	}
	if p := (&Reply{Op: Store}).Packets(); p != PacketsWithoutData {
		t.Errorf("store ack packets = %d, want %d", p, PacketsWithoutData)
	}
}

// TestMessageSizes pins what a hop copies: a message crosses a link by
// value (queue entry, then server record), so a field added to either
// struct is paid on every hop and should be a decision, not an accident.
// Copy sits in Op's padding; Issued is a word of its own.
func TestMessageSizes(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 72 {
		t.Errorf("Request is %d bytes, want 72", got)
	}
	if got := unsafe.Sizeof(Reply{}); got != 72 {
		t.Errorf("Reply is %d bytes, want 72", got)
	}
}

// TestRequestReplyCarriesEverything: the one constructor of the reply owed
// to a request. Every field the way back needs rides with it — a reply
// that dropped Copy would return through copy 0 and strand its wait-buffer
// record in the copy that carried the request.
func TestRequestReplyCarriesEverything(t *testing.T) {
	r := Request{
		ID: 11, PE: 22, Op: FetchAdd, Copy: 3, Addr: Addr{MM: 44, Word: 55},
		Operand: 66, Issued: 77, TC: TraceCtx{ID: 88, Hops: 9},
	}
	want := Reply{
		ID: 11, PE: 22, Op: FetchAdd, Copy: 3, Addr: Addr{MM: 44, Word: 55},
		Value: 99, Issued: 77, TC: TraceCtx{ID: 88, Hops: 9},
	}
	if got := r.Reply(99); got != want {
		t.Fatalf("Reply(99) = %+v, want %+v", got, want)
	}
}

func TestApply(t *testing.T) {
	cases := []struct {
		op               Op
		old, operand     int64
		wantNew, wantRet int64
	}{
		{Load, 7, 999, 7, 7},
		{Store, 7, 42, 42, 0},
		{FetchAdd, 7, 5, 12, 7},
		{FetchAdd, 7, -9, -2, 7},
		{FetchAnd, 0b1100, 0b1010, 0b1000, 0b1100},
		{FetchOr, 0b1100, 0b1010, 0b1110, 0b1100},
		{FetchMax, 3, 9, 9, 3},
		{FetchMax, 9, 3, 9, 9},
		{FetchMin, 3, 9, 3, 3},
		{FetchMin, 9, 3, 3, 9},
		{Swap, 7, 42, 42, 7},
	}
	for _, c := range cases {
		gotNew, gotRet := Apply(c.op, c.old, c.operand)
		if gotNew != c.wantNew || gotRet != c.wantRet {
			t.Errorf("Apply(%v, %d, %d) = (%d, %d), want (%d, %d)",
				c.op, c.old, c.operand, gotNew, gotRet, c.wantNew, c.wantRet)
		}
	}
}

func TestApplyInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Apply(invalid) did not panic")
		}
	}()
	Apply(Op(99), 0, 0)
}

func TestCombinablePairs(t *testing.T) {
	want := map[[2]Op]bool{
		{Load, Load}:         true,
		{Load, Store}:        true,
		{Store, Load}:        true,
		{Store, Store}:       true,
		{FetchAdd, FetchAdd}: true,
		{FetchAdd, Load}:     true,
		{Load, FetchAdd}:     true,
		{FetchAdd, Store}:    true,
		{Store, FetchAdd}:    true,
		{Swap, Swap}:         true,
		{FetchAnd, FetchAnd}: true,
		{FetchOr, FetchOr}:   true,
		{FetchMax, FetchMax}: true,
		{FetchMin, FetchMin}: true,
		{Swap, FetchAdd}:     false,
		{FetchAnd, FetchOr}:  false,
		{Load, Swap}:         false,
	}
	for pair, w := range want {
		if got := Combinable(pair[0], pair[1]); got != w {
			t.Errorf("Combinable(%v, %v) = %v, want %v", pair[0], pair[1], got, w)
		}
	}
}

// outcome records the result of executing a pair of operations against a
// memory cell: the cell's final value and each request's returned value.
type outcome struct {
	final, retA, retB int64
}

// serialize applies first then second to a cell holding v.
func serialize(v int64, firstOp Op, firstArg int64, secondOp Op, secondArg int64) (final, ret1, ret2 int64) {
	v1, r1 := Apply(firstOp, v, firstArg)
	v2, r2 := Apply(secondOp, v1, secondArg)
	return v2, r1, r2
}

// TestCombineMatchesSomeSerialization is the central correctness property
// of the combining network (the serialization principle, §2.1): for every
// combinable pair, executing the single combined request and synthesizing
// the two replies must be indistinguishable from executing the two
// requests one after the other in some order.
func TestCombineMatchesSomeSerialization(t *testing.T) {
	ops := []Op{Load, Store, FetchAdd, FetchAnd, FetchOr, FetchMax, FetchMin, Swap}
	f := func(aIdx, bIdx uint8, v, e, fArg int64) bool {
		aOp := ops[int(aIdx)%len(ops)]
		bOp := ops[int(bIdx)%len(ops)]
		fwdOp, fwdArg, aPlan, bPlan, ok := Combine(aOp, e, bOp, fArg)
		if !ok {
			return true // non-combinable pairs are out of scope
		}
		newV, y := Apply(fwdOp, v, fwdArg)
		gotA := aPlan.Synthesize(y)
		gotB := bPlan.Synthesize(y)

		// Stores return no value; mask their returns for comparison.
		mask := func(op Op, r int64) int64 {
			if op == Store {
				return 0
			}
			return r
		}
		got := outcome{newV, mask(aOp, gotA), mask(bOp, gotB)}

		fin1, r1a, r1b := serialize(v, aOp, e, bOp, fArg)
		want1 := outcome{fin1, mask(aOp, r1a), mask(bOp, r1b)}
		fin2, r2b, r2a := serialize(v, bOp, fArg, aOp, e)
		want2 := outcome{fin2, mask(aOp, r2a), mask(bOp, r2b)}

		if got != want1 && got != want2 {
			t.Logf("pair %v(%d)/%v(%d) on cell %d: combined %v, serial %v or %v",
				aOp, e, bOp, fArg, v, got, want1, want2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// TestCombineStoreInvariant checks the invariant the network relies on:
// when the forwarded operation is a Store (whose reply carries no data),
// both reply plans must be Known.
func TestCombineStoreInvariant(t *testing.T) {
	ops := []Op{Load, Store, FetchAdd, FetchAnd, FetchOr, FetchMax, FetchMin, Swap}
	for _, a := range ops {
		for _, b := range ops {
			fwdOp, _, aPlan, bPlan, ok := Combine(a, 3, b, 5)
			if !ok || fwdOp != Store {
				continue
			}
			if !aPlan.Known || !bPlan.Known {
				t.Errorf("Combine(%v, %v) forwards Store with non-Known plans", a, b)
			}
		}
	}
}

// TestNestedCombining checks that a combined request can itself combine
// (three fetch-and-adds folding into one) and that the three synthesized
// replies are consistent with a serial order.
func TestNestedCombining(t *testing.T) {
	const v0 = 100
	// Stage 2: r1 queued, r2 arrives.
	op12, arg12, plan1, plan2, ok := Combine(FetchAdd, 1, FetchAdd, 2)
	if !ok {
		t.Fatal("FetchAdd pair must combine")
	}
	// Stage 1: combined(1,2) queued, r3 arrives.
	op123, arg123, plan12, plan3, ok := Combine(op12, arg12, FetchAdd, 4)
	if !ok {
		t.Fatal("combined request must combine again")
	}
	final, y := Apply(op123, v0, arg123)
	if final != v0+7 {
		t.Fatalf("memory = %d, want %d", final, v0+7)
	}
	y12 := plan12.Synthesize(y)
	got := []int64{plan1.Synthesize(y12), plan2.Synthesize(y12), plan3.Synthesize(y)}
	// Serialization r1, r2, r3: returns 100, 101, 103.
	want := []int64{100, 101, 103}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("returns = %v, want %v", got, want)
		}
	}
}

func TestRequestReplyString(t *testing.T) {
	r := Request{ID: 1, PE: 2, Op: FetchAdd, Addr: Addr{MM: 3, Word: 4}, Operand: 5}
	if r.String() == "" || (Reply{}).String() == "" || (Addr{1, 2}).String() != "1:2" {
		t.Error("String methods must produce non-empty output")
	}
}
