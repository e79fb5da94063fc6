package reqtrace

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"unsafe"

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
		To: obs.SubTrace, Kind: kind, Cycle: cycle, ID: id, PE: int32(id >> 32),
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
		if !reflect.DeepEqual(s, want[i]) {
			t.Errorf("span %d read back as\n %+v, wrote\n %+v", i, *s, *want[i])
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

// trip feeds one whole uncombined request that opens at cycle and is
// delivered at cycle+latency: inject, 30 switch hops, deliver.
func trip(tr *Tracer, id uint64, cycle, latency int64) {
	tr.Emit(ev(obs.KindInject, cycle, id))
	for h := 1; h <= 30; h++ {
		e := ev(obs.KindStageArrive, cycle+int64(h)*latency/32, id)
		e.Stage, e.Aux = int8(h%6), int32(h)
		tr.Emit(e)
	}
	tr.Emit(ev(obs.KindReplyDeliver, cycle+latency, id))
}

// pairTrip feeds two requests in flight together, child absorbed by
// parent at stage 2 and decombined on the way back; both take 32 cycles.
func pairTrip(tr *Tracer, parent, child uint64, cycle int64) {
	for _, id := range []uint64{parent, child} {
		tr.Emit(ev(obs.KindInject, cycle, id))
		for h := 1; h <= 4; h++ {
			e := ev(obs.KindStageArrive, cycle+int64(h), id)
			e.Stage = int8(h / 2)
			tr.Emit(e)
		}
	}
	c := ev(obs.KindCombine, cycle+5, child)
	c.ID2, c.Aux, c.Stage = parent, int32(parent>>32), 2
	tr.Emit(c)
	for h := 6; h <= 24; h++ {
		e := ev(obs.KindStageDepart, cycle+int64(h), parent)
		e.Stage = int8(h % 6)
		tr.Emit(e)
	}
	d := ev(obs.KindDecombine, cycle+25, parent)
	d.ID2, d.Stage = child, 2
	tr.Emit(d)
	tr.Emit(ev(obs.KindReplyDeliver, cycle+32, parent))
	tr.Emit(ev(obs.KindReplyDeliver, cycle+32, child))
}

// TestTracerSteadyStateZeroAlloc: once the flight ring has wrapped, a
// traced request costs no allocation — the span the ring evicts is the
// span the next request opens, hop array and children array included —
// for lone requests and combined pairs alike.
func TestTracerSteadyStateZeroAlloc(t *testing.T) {
	const ring = 64
	tr := New(Config{Rate: 1, Ring: ring})
	id, cycle := uint64(1)<<32, int64(0)
	feed := func() {
		id, cycle = id+3, cycle+40
		trip(tr, id, cycle, 32)
		pairTrip(tr, id+1, id+2, cycle)
	}
	for tr.Completed() < 2*ring {
		feed()
	}
	if avg := testing.AllocsPerRun(200, feed); avg != 0 {
		t.Errorf("a traced request and a combined pair allocate %.2f times after warm-up, want 0", avg)
	}
	if tr.Active() != 0 || tr.Dropped() != 0 || tr.CombineLinks() == 0 {
		t.Errorf("active %d, dropped %d, combine links %d: the feed is not what it claims", tr.Active(), tr.Dropped(), tr.CombineLinks())
	}
}

// TestSnapshotIsOwnedByCaller: what Spans and SlowSpans hand out is a
// copy. The tracer goes on to recycle every span the snapshot was taken
// of — four ring-fuls of later requests — and the snapshot must not
// change by a byte.
func TestSnapshotIsOwnedByCaller(t *testing.T) {
	const ring = 8
	tr := New(Config{Rate: 1, Ring: ring})
	id := uint64(1) << 32
	feed := func(n int64, latency int64) {
		for ; n > 0; n -= 3 {
			id += 3
			trip(tr, id, int64(id&0xffff)*7, latency)
			pairTrip(tr, id+1, id+2, int64(id&0xffff)*7)
		}
	}
	feed(DefaultMinSlowSamples+ring, 32)
	feed(3, 400) // the lone trip of this round is an outlier
	snap := append(tr.Spans(), tr.SlowSpans()...)
	if len(snap) != ring+1 || !snap[ring].Slow {
		t.Fatalf("snapshot of %d spans, last slow = %v; want %d ring spans and one slow span", len(snap), snap[len(snap)-1].Slow, ring)
	}
	var before, after bytes.Buffer
	if err := writeJSONL(&before, snap); err != nil {
		t.Fatal(err)
	}
	feed(4*ring, 32)
	if err := writeJSONL(&after, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Errorf("a snapshot changed under its holder while the tracer ran on:\n%s\nbecame\n%s", before.Bytes(), after.Bytes())
	}
}

// TestSlowSpanSurvivesRingEviction: a span the slow reservoir holds is
// not recycled when the ring lets go of it; after the ring has wrapped
// twice the flight dump still carries it, whole, behind the ring.
func TestSlowSpanSurvivesRingEviction(t *testing.T) {
	const ring = 4
	tr := New(Config{Rate: 1, Ring: ring})
	for i := uint64(1); i <= DefaultMinSlowSamples; i++ {
		trip(tr, i, int64(i)*10, 32)
	}
	const slowID = 1000
	trip(tr, slowID, 5000, 400)
	slow := tr.SlowSpans()
	if len(slow) != 1 || slow[0].ID != slowID || !slow[0].Slow || slow[0].Latency != 400 {
		t.Fatalf("slow reservoir after the outlier: %+v", slow)
	}
	for i := uint64(1); i <= 2*ring; i++ {
		trip(tr, 2000+i, 6000+int64(i)*10, 32)
	}
	var dump bytes.Buffer
	if err := tr.WriteFlightJSONL(&dump); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpans(&dump)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != ring+1 {
		t.Fatalf("flight dump has %d spans, want the ring's %d and the evicted slow one", len(got), ring)
	}
	for i, s := range got[:ring] {
		if want := uint64(2000 + ring + 1 + i); s.ID != want {
			t.Errorf("ring span %d is request %d, want %d", i, s.ID, want)
		}
	}
	if !reflect.DeepEqual(got[ring], slow[0]) {
		t.Errorf("the slow span left the ring as\n %+v\nand is dumped as\n %+v", *slow[0], *got[ring])
	}
}

// TestHopSize pins the hop record at 40 bytes: hops are most of what a
// traced run keeps live, and a field widened back to int costs 40 %.
func TestHopSize(t *testing.T) {
	if got := unsafe.Sizeof(Hop{}); got > 40 {
		t.Errorf("Hop is %d bytes, want <= 40", got)
	}
}

// outOfRange are span lines whose hop fields do not fit the narrowed
// Hop: a decoder that wrapped them would render a wrong machine.
var outOfRange = []string{
	`{"id":1,"hops":[{"kind":"enqueue","cycle":4,"stage":300,"copy":0,"mm":-1}]}`,
	`{"id":1,"hops":[{"kind":"enqueue","cycle":4,"stage":0,"copy":70000,"mm":-1}]}`,
	`{"id":1,"hops":[{"kind":"mm-arrive","cycle":4,"stage":-1,"copy":0,"mm":1099511627776}]}`,
}

func TestReadSpansRejectsOutOfRange(t *testing.T) {
	for _, line := range outOfRange {
		if spans, err := ReadSpans(strings.NewReader(line)); err == nil {
			t.Errorf("ReadSpans accepted %s as %+v", line, spans[0].Hops)
		}
	}
}

// TestReadSpansOfParentDump: testdata/hotspot.spans.jsonl was written by
// the tracer as it was before Hop's fields were narrowed (netperf
// -simports 16 -hot 0.4 -rate 0.15 -reqtrace 1, one combining tree and
// two lone requests of the dump). It must read, and write back to the
// same bytes.
func TestReadSpansOfParentDump(t *testing.T) {
	want, err := os.ReadFile("testdata/hotspot.spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpans(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeJSONL(&got, spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 8 || !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%d spans read; rewriting them changed the bytes", len(spans))
	}
}

// FuzzReadSpans: ReadSpans never panics, and whatever it accepts is
// stable under write -> read -> write.
func FuzzReadSpans(f *testing.F) {
	dump, err := os.ReadFile("testdata/hotspot.spans.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dump)
	for _, line := range outOfRange {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := ReadSpans(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := writeJSONL(&first, spans); err != nil {
			t.Fatalf("spans read from %q do not write: %v", data, err)
		}
		again, err := ReadSpans(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadSpans rejects what writeJSONL wrote:\n%s\n%v", first.Bytes(), err)
		}
		if err := writeJSONL(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("write -> read -> write is not the identity:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
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
