package msg

import (
	"fmt"
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

// combineOps lists every operation, for generated cases to index.
var combineOps = []Op{Load, Store, FetchAdd, FetchAnd, FetchOr, FetchMax, FetchMin, Swap}

// ref is one request to a memory cell.
type ref struct {
	op  Op
	arg int64
}

func (r ref) String() string { return fmt.Sprintf("%v(%d)", r.op, r.arg) }

// combine merges queued request a with arriving request b.
func combine(a, b ref) (fwd ref, aPlan, bPlan ReplyPlan, ok bool) {
	fwd.op, fwd.arg, aPlan, bPlan, ok = Combine(a.op, a.arg, b.op, b.arg)
	return fwd, aPlan, bPlan, ok
}

// someSerialOrder reports whether applying refs one after another in
// some order to a cell holding v leaves final in the cell and returns
// rets[i] to refs[i]. Stores return no value, so their rets are ignored.
func someSerialOrder(v int64, refs []ref, final int64, rets ...int64) bool {
	order := make([]int, 0, len(refs))
	var try func(used int) bool
	try = func(used int) bool {
		if len(order) == len(refs) {
			cell := v
			for _, i := range order {
				var ret int64
				cell, ret = Apply(refs[i].op, cell, refs[i].arg)
				if refs[i].op != Store && ret != rets[i] {
					return false
				}
			}
			return cell == final
		}
		for i := range refs {
			if used&(1<<i) == 0 {
				order = append(order, i)
				if try(used | 1<<i) {
					return true
				}
				order = order[:len(order)-1]
			}
		}
		return false
	}
	return try(0)
}

// combineViolation checks the serialization principle (§2.1) on one cell
// holding v: executing a combined request and synthesizing the replies
// must be indistinguishable from executing the originals one after the
// other in some order. It checks a combined with b, then that combined
// request combined again with c, both as the queued request and as the
// arriving one (a later stage's queue holds either). It describes the
// first case no serial order explains, or returns "".
func combineViolation(v int64, a, b, c ref) string {
	ab, aPlan, bPlan, ok := combine(a, b)
	if !ok {
		return "" // non-combinable pairs are out of scope
	}
	final, y := Apply(ab.op, v, ab.arg)
	retA, retB := aPlan.Synthesize(y), bPlan.Synthesize(y)
	if !someSerialOrder(v, []ref{a, b}, final, retA, retB) {
		return fmt.Sprintf("%v then %v on cell %d: combined leaves %d and returns %d, %d",
			a, b, v, final, retA, retB)
	}
	for _, cQueued := range []bool{false, true} {
		var fwd ref
		var abPlan, cPlan ReplyPlan
		if cQueued {
			fwd, cPlan, abPlan, ok = combine(c, ab)
		} else {
			fwd, abPlan, cPlan, ok = combine(ab, c)
		}
		if !ok {
			continue
		}
		final, y := Apply(fwd.op, v, fwd.arg)
		yAB := abPlan.Synthesize(y)
		retA, retB, retC := aPlan.Synthesize(yAB), bPlan.Synthesize(yAB), cPlan.Synthesize(y)
		if !someSerialOrder(v, []ref{a, b, c}, final, retA, retB, retC) {
			return fmt.Sprintf("(%v then %v) with %v queued=%v on cell %d: combined leaves %d and returns %d, %d, %d",
				a, b, c, cQueued, v, final, retA, retB, retC)
		}
	}
	return ""
}

// TestCombineMatchesSomeSerialization is the central correctness property
// of the combining network (the serialization principle, §2.1) on 20 000
// random cases of combineViolation: every combinable pair, and every
// combined pair combined again with a third request.
func TestCombineMatchesSomeSerialization(t *testing.T) {
	check := func(ai, bi, ci uint8, v, e, f, g int64) bool {
		n := uint8(len(combineOps))
		msg := combineViolation(v, ref{combineOps[ai%n], e}, ref{combineOps[bi%n], f}, ref{combineOps[ci%n], g})
		if msg != "" {
			t.Log(msg)
		}
		return msg == ""
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzCombine searches for operation and operand triples on which
// combining breaks the serialization principle (combineViolation). The
// corpus under testdata/fuzz/FuzzCombine holds the paper's heterogeneous
// store-first rules nested three deep and operands that overflow.
func FuzzCombine(f *testing.F) {
	f.Fuzz(func(t *testing.T, ai, bi, ci uint8, v, e, fArg, g int64) {
		n := uint8(len(combineOps))
		if msg := combineViolation(v, ref{combineOps[ai%n], e}, ref{combineOps[bi%n], fArg}, ref{combineOps[ci%n], g}); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestCombineStoreInvariant checks the invariant the network relies on:
// when the forwarded operation is a Store (whose reply carries no data),
// both reply plans must be Known.
func TestCombineStoreInvariant(t *testing.T) {
	for _, a := range combineOps {
		for _, b := range combineOps {
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
