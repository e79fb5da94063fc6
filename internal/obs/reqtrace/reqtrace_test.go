package reqtrace

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
)

// TestContextForSampling: the sampling decision is a pure function of
// the request ID and the seed — the same ID gets the same answer from
// any tracer of equal configuration, however often and in whatever
// order it is asked — the sampled share matches Rate, rate 0 samples
// nothing, rate 1 everything, and a different seed picks a different
// set.
func TestContextForSampling(t *testing.T) {
	const n = 200_000
	id := func(i int) uint64 { return uint64(i%64)<<32 | uint64(i/64+1) }
	for _, rate := range []float64{0, 0.01, 0.25, 0.6, 1} {
		a := New(Config{Rate: rate, Seed: 7})
		b := New(Config{Rate: rate, Seed: 7})
		hits := 0
		for i := n - 1; i >= 0; i-- { // b is asked in the opposite order
			b.ContextFor(id(i))
		}
		for i := 0; i < n; i++ {
			tc := a.ContextFor(id(i))
			if tc != b.ContextFor(id(i)) || tc != a.ContextFor(id(i)) {
				t.Fatalf("rate %v: ContextFor(%#x) is not a pure function of the ID", rate, id(i))
			}
			if tc.Traced() {
				if tc.ID != id(i) {
					t.Fatalf("rate %v: context of %#x names request %#x", rate, id(i), tc.ID)
				}
				hits++
			}
		}
		got := float64(hits) / n
		// Three standard deviations of a binomial share, and exact at
		// the ends.
		if tol := 3 * math.Sqrt(rate*(1-rate)/n); math.Abs(got-rate) > tol {
			t.Errorf("rate %v: sampled share %.5f, off by more than %.5f", rate, got, tol)
		}
	}
	a, b := New(Config{Rate: 0.25, Seed: 7}), New(Config{Rate: 0.25, Seed: 8})
	differ := 0
	for i := 0; i < 1000; i++ {
		if a.ContextFor(id(i)) != b.ContextFor(id(i)) {
			differ++
		}
	}
	if differ == 0 {
		t.Error("seeds 7 and 8 sample the same 1000 requests")
	}
}

// ev builds one event of request id.
func ev(kind obs.Kind, cycle int64, id uint64) obs.Event {
	return obs.Event{
		To: obs.SubTrace, Kind: kind, Cycle: cycle, ID: id, PE: int(id >> 32),
		Stage: -1, MM: -1, Copy: 0, Op: msg.FetchAdd, Addr: msg.Addr{MM: 5, Word: 9},
	}
}

// TestMidFlightAdoption: a sampled request combining with an unsampled
// one adopts it — in either role — so the combining tree is whole: the
// partner gets a span opened at the combine, marked Adopted, with the
// PE the event names for it; both sides record the link and the
// decombine closes the child's wait.
func TestMidFlightAdoption(t *testing.T) {
	const sampled, stranger, parent = uint64(1)<<32 | 1, uint64(2)<<32 | 1, uint64(3)<<32 | 1
	tr := New(Config{})
	tr.Emit(ev(obs.KindInject, 10, sampled))

	// The sampled request absorbs an unsampled one at stage 1.
	c := ev(obs.KindCombine, 12, stranger)
	c.ID2, c.Aux, c.Stage = sampled, int32(sampled>>32), 1
	tr.Emit(c)
	// Then it is itself absorbed by an unsampled survivor at stage 2.
	c = ev(obs.KindCombine, 14, sampled)
	c.ID2, c.Aux, c.Stage = parent, int32(parent>>32), 2
	tr.Emit(c)
	if got := tr.CombineLinks(); got != 2 {
		t.Fatalf("combine links = %d, want 2", got)
	}
	if got := tr.Active(); got != 3 {
		t.Fatalf("active spans = %d, want 3: the sampled request and its two adopted partners", got)
	}

	// The survivor is served; the replies fork back and are delivered.
	tr.Emit(ev(obs.KindMNIServe, 20, parent))
	d := ev(obs.KindDecombine, 24, parent)
	d.ID2, d.Stage = sampled, 2
	tr.Emit(d)
	d = ev(obs.KindDecombine, 26, sampled)
	d.ID2, d.Stage = stranger, 1
	tr.Emit(d)
	for i, id := range []uint64{parent, sampled, stranger} {
		tr.Emit(ev(obs.KindReplyDeliver, 30+int64(i), id))
	}
	if tr.Active() != 0 || tr.Completed() != 3 || tr.Dropped() != 0 {
		t.Fatalf("active %d, completed %d, dropped %d; want 0, 3, 0", tr.Active(), tr.Completed(), tr.Dropped())
	}
	byID := map[uint64]*Span{}
	for _, s := range tr.Spans() {
		byID[s.ID] = s
	}
	if s := byID[sampled]; s.Adopted || s.Parent != parent || !reflect.DeepEqual(s.Children, []uint64{stranger}) || s.WaitCycles != 10 {
		t.Errorf("sampled span: %+v", s)
	}
	if s := byID[stranger]; !s.Adopted || s.PE != 2 || s.Issued != 12 || s.Parent != sampled || s.WaitCycles != 14 || s.Op != "FetchAdd" {
		t.Errorf("adopted child: %+v", s)
	}
	// The adopted survivor's op is unknown at the combine and learned at
	// MNI service.
	if s := byID[parent]; !s.Adopted || s.PE != 3 || s.Issued != 14 || !reflect.DeepEqual(s.Children, []uint64{sampled}) || s.Op != "FetchAdd" {
		t.Errorf("adopted parent: %+v", s)
	}
}

// TestRingOverflowAndDropped: the flight ring keeps the newest Ring
// spans, oldest first, while Completed counts them all; and every event
// that matches no open span — a hop of a request never sampled, a
// second delivery, a kind the tracer has no use for — is counted
// Dropped, never silently lost and never a panic.
func TestRingOverflowAndDropped(t *testing.T) {
	tr := New(Config{Rate: 1, Ring: 4})
	for i := uint64(1); i <= 10; i++ {
		tr.Emit(ev(obs.KindInject, int64(i), i))
		tr.Emit(ev(obs.KindReplyDeliver, int64(i)+5, i))
	}
	var ids []uint64
	for _, s := range tr.Spans() {
		ids = append(ids, s.ID)
	}
	if want := []uint64{7, 8, 9, 10}; !reflect.DeepEqual(ids, want) || tr.Completed() != 10 {
		t.Errorf("ring holds %v after %d completions, want %v after 10", ids, tr.Completed(), want)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped = %d before any stray event", tr.Dropped())
	}
	tr.Emit(ev(obs.KindStageArrive, 20, 99))  // never injected
	tr.Emit(ev(obs.KindReplyDeliver, 21, 10)) // already closed
	tr.Emit(ev(obs.KindStallBegin, 22, 0))    // not a tracer kind
	tr.Emit(ev(obs.KindDecombine, 23, 98))    // neither side open: nothing to record, nothing dropped
	if got := tr.Dropped(); got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}
	if tr.Active() != 0 || tr.Completed() != 10 {
		t.Errorf("stray events changed the spans: active %d, completed %d", tr.Active(), tr.Completed())
	}
}

// TestSpansJSONLRoundTrip: ReadSpans inverts WriteSpansJSONL, and
// writing what was read reproduces the bytes.
func TestSpansJSONLRoundTrip(t *testing.T) {
	tr := New(Config{Rate: 1})
	tr.Emit(ev(obs.KindInject, 3, 1))
	arrive := ev(obs.KindStageArrive, 4, 1)
	arrive.Stage, arrive.Aux = 0, 6
	tr.Emit(arrive)
	c := ev(obs.KindCombine, 5, 2)
	c.ID2, c.Stage = 1, 0
	tr.Emit(c)
	tr.Emit(ev(obs.KindMNIServe, 8, 1))
	d := ev(obs.KindDecombine, 11, 1)
	d.ID2, d.Stage = 2, 0
	tr.Emit(d)
	del := ev(obs.KindReplyDeliver, 13, 1)
	del.Value = -7
	tr.Emit(del)
	tr.Emit(ev(obs.KindReplyDeliver, 14, 2))

	var first bytes.Buffer
	if err := tr.WriteSpansJSONL(&first); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpans(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Spans()
	if len(spans) != 2 || len(spans) != len(want) {
		t.Fatalf("read %d spans of %d written", len(spans), len(want))
	}
	for i, s := range spans {
		w := *want[i]
		w.waitStart = 0 // not serialized
		if !reflect.DeepEqual(*s, w) {
			t.Errorf("span %d read back as\n %+v, wrote\n %+v", i, *s, w)
		}
	}
	var second bytes.Buffer
	if err := writeJSONL(&second, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("rewriting the spans read changed the bytes:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
	}
	if _, err := ReadSpans(bytes.NewReader([]byte(`{"id":1,"hops":[{"kind":"teleport"}]}`))); err == nil {
		t.Error("ReadSpans accepted an unknown hop kind")
	}
}
