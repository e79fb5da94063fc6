package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"unsafe"

	"ultracomputer/internal/msg"
)

func TestRecorderOrdering(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Cycle: int64(i)})
	}
	evs := r.Events()
	if len(evs) != 5 || r.Len() != 5 || r.Total() != 5 || r.Overwritten() != 0 {
		t.Fatalf("len=%d total=%d overwritten=%d", r.Len(), r.Total(), r.Overwritten())
	}
	for i, ev := range evs {
		if ev.Cycle != int64(i) {
			t.Errorf("event %d has cycle %d", i, ev.Cycle)
		}
	}
}

func TestRecorderWraparound(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Cycle: int64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Total() != 10 || r.Overwritten() != 6 {
		t.Fatalf("Total = %d Overwritten = %d, want 10 and 6", r.Total(), r.Overwritten())
	}
	evs := r.Events()
	for i, want := range []int64{6, 7, 8, 9} {
		if evs[i].Cycle != want {
			t.Errorf("event %d has cycle %d, want %d (newest window, oldest first)", i, evs[i].Cycle, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 || len(r.Events()) != 0 {
		t.Errorf("Reset left state behind")
	}
}

// TestNilProbeZeroAlloc pins the contract that a disabled probe costs
// nothing on the hot path: the nil check plus a value-struct Emit must
// not allocate.
func TestNilProbeZeroAlloc(t *testing.T) {
	var probe Probe
	ev := Event{Cycle: 42, Kind: KindInject, PE: 3, ID: 7}
	if a := testing.AllocsPerRun(1000, func() {
		if probe != nil {
			probe.Emit(ev)
		}
	}); a != 0 {
		t.Errorf("nil-probe emit path allocates %v per run, want 0", a)
	}
}

// TestRecorderEmitZeroAlloc pins that an enabled ring-buffer recorder
// does not allocate per event either.
func TestRecorderEmitZeroAlloc(t *testing.T) {
	r := NewRecorder(16)
	var probe Probe = r
	ev := Event{Cycle: 42, Kind: KindStageArrive, Stage: 1, ID: 7}
	if a := testing.AllocsPerRun(1000, func() {
		probe.Emit(ev)
	}); a != 0 {
		t.Errorf("Recorder.Emit allocates %v per run, want 0", a)
	}
}

func TestSamplerRates(t *testing.T) {
	s := NewSampler(64)
	if s.Due(0) || s.Due(63) || !s.Due(64) || !s.Due(128) {
		t.Fatalf("Due schedule wrong for Every=64")
	}
	s.Record(Snapshot{Cycle: 0, Injected: 0, Combines: 0, MMServed: 0,
		StageQueuePackets: []int64{1, 2}})
	s.Record(Snapshot{Cycle: 64, Injected: 128, Combines: 32, MMServed: 64,
		StageQueuePackets: []int64{3, 4}})
	snaps := s.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d, want 2", len(snaps))
	}
	if snaps[0].InjectRate != 0 {
		t.Errorf("first snapshot rate = %v, want 0 (no prior interval)", snaps[0].InjectRate)
	}
	if got := snaps[1].InjectRate; got != 2 {
		t.Errorf("InjectRate = %v, want 2", got)
	}
	if got := snaps[1].CombineRate; got != 0.5 {
		t.Errorf("CombineRate = %v, want 0.5", got)
	}
	if got := snaps[1].ServeRate; got != 1 {
		t.Errorf("ServeRate = %v, want 1", got)
	}
	h := s.StageOccupancy(1)
	if h == nil || h.N() != 2 || h.Count(2) != 1 || h.Count(4) != 1 {
		t.Errorf("stage 1 occupancy histogram wrong: %+v", h)
	}
	if s.StageOccupancy(5) != nil {
		t.Errorf("unsampled stage should report nil")
	}
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 2 {
		t.Errorf("JSONL lines = %d, want 2", lines)
	}
}

// TestSamplerDueGuards pins the Every <= 0 guard: a hand-built Sampler
// (not via NewSampler) must be inert, not a division-by-zero panic, and
// cycle 0 must never fire — the machine has no history to snapshot yet.
func TestSamplerDueGuards(t *testing.T) {
	for _, every := range []int64{0, -3} {
		s := &Sampler{Every: every}
		for _, cycle := range []int64{0, 1, 64, 1000} {
			if s.Due(cycle) {
				t.Errorf("Sampler{Every: %d}.Due(%d) = true, want false (disabled)", every, cycle)
			}
		}
	}
	if NewSampler(16).Due(0) {
		t.Error("Due(0) fired: the first snapshot must land at cycle Every, not 0")
	}
}

// TestSamplerOnRecord pins the copy-on-sample hand-off: the hook runs
// once per Record, after the rate fields are filled.
func TestSamplerOnRecord(t *testing.T) {
	s := NewSampler(64)
	var got []Snapshot
	s.OnRecord = func(sn Snapshot) { got = append(got, sn) }
	s.Record(Snapshot{Cycle: 64, Injected: 64, RTCount: 2, RTSum: 20})
	s.Record(Snapshot{Cycle: 128, Injected: 192, RTCount: 6, RTSum: 100})
	if len(got) != 2 {
		t.Fatalf("OnRecord ran %d times, want 2", len(got))
	}
	if got[1].InjectRate != 2 {
		t.Errorf("hook saw InjectRate = %v before rates were filled, want 2", got[1].InjectRate)
	}
	if got[1].RTWindowMean != 20 {
		t.Errorf("RTWindowMean = %v, want 20 ((100-20)/(6-2))", got[1].RTWindowMean)
	}
}

// TestSamplerLastOnly: dropping the series changes nothing but the
// series — the hook sees the same snapshots with the same rates, Last
// and the occupancy summary agree with a retaining sampler's.
func TestSamplerLastOnly(t *testing.T) {
	keep, drop := NewSampler(64), NewSampler(64)
	drop.LastOnly = true
	if _, ok := drop.Last(); ok {
		t.Error("Last() reports a snapshot before the first Record")
	}
	var seen [2][]Snapshot
	for i, s := range []*Sampler{keep, drop} {
		s.OnRecord = func(sn Snapshot) { seen[i] = append(seen[i], sn) }
		for c := int64(1); c <= 5; c++ {
			s.Record(Snapshot{Cycle: 64 * c, Injected: 100 * c * c, RTCount: 3 * c, RTSum: float64(40 * c * c),
				StageQueuePackets: []int64{c, 2 * c}, StageQueueMax: []int64{1, c}})
		}
	}
	if !reflect.DeepEqual(seen[0], seen[1]) {
		t.Errorf("OnRecord saw different snapshots:\nkeep %+v\ndrop %+v", seen[0], seen[1])
	}
	kl, _ := keep.Last()
	dl, ok := drop.Last()
	if !ok || !reflect.DeepEqual(kl, dl) || !reflect.DeepEqual(kl, keep.Snapshots()[4]) {
		t.Errorf("Last() = %+v (ok %v), want the retaining sampler's newest %+v", dl, ok, kl)
	}
	if keep.Summary() != drop.Summary() {
		t.Errorf("summaries differ:\n%s\n%s", keep.Summary(), drop.Summary())
	}
	if n := len(drop.Snapshots()); n != 0 {
		t.Errorf("a LastOnly sampler retained %d snapshots", n)
	}
}

// TestRecorderWrapAnyCapacity: the ring is indexed by compare, not by
// remainder, so a capacity that is no power of two must still hand back
// the held events in order at every fill level and every position of
// the oldest.
func TestRecorderWrapAnyCapacity(t *testing.T) {
	for _, capacity := range []int{1, 3, 5, 7} {
		r := NewRecorder(capacity)
		for emitted := 1; emitted <= 3*capacity+1; emitted++ {
			r.Emit(Event{Cycle: int64(emitted)})
			held := min(emitted, capacity)
			got := r.Events()
			ok := len(got) == held
			for i := 0; ok && i < held; i++ {
				ok = got[i].Cycle == int64(emitted-held+1+i)
			}
			if !ok {
				t.Fatalf("capacity %d, %d emitted: Events() = %v, want cycles %d..%d", capacity, emitted, got, emitted-held+1, emitted)
			}
		}
	}
}

func TestDefaultCapacities(t *testing.T) {
	if NewRecorder(0).Len() != 0 {
		t.Error("zero-capacity recorder not empty")
	}
	if cap := len(NewRecorder(0).buf); cap != DefaultRecorderCapacity {
		t.Errorf("default capacity = %d", cap)
	}
	if s := NewSampler(0); s.Every != 64 {
		t.Errorf("default Every = %d, want 64", s.Every)
	}
}

// TestChromeTraceCombinedSpan feeds a synthetic combined pair through
// the exporter and checks that (a) the file is valid JSON, (b) both
// origin requests appear as lifecycle spans, and (c) the surviving
// request's single MNI span lists both origins in its "serves" arg.
func TestChromeTraceCombinedSpan(t *testing.T) {
	addr := msg.Addr{MM: 0, Word: 5}
	events := []Event{
		{Cycle: 0, Kind: KindInject, Op: msg.FetchAdd, PE: 0, ID: 1, Addr: addr},
		{Cycle: 0, Kind: KindInject, Op: msg.FetchAdd, PE: 1, ID: 2, Addr: addr},
		{Cycle: 1, Kind: KindStageArrive, Op: msg.FetchAdd, Stage: 0, ID: 1, Addr: addr},
		{Cycle: 1, Kind: KindStageArrive, Op: msg.FetchAdd, Stage: 0, ID: 2, Addr: addr},
		// Request 1 is absorbed into request 2 at stage 0.
		{Cycle: 2, Kind: KindCombine, Op: msg.FetchAdd, Stage: 0, ID: 1, ID2: 2, Addr: addr},
		{Cycle: 3, Kind: KindStageArrive, Op: msg.FetchAdd, Stage: 1, ID: 2, Addr: addr},
		{Cycle: 5, Kind: KindMMArrive, MM: 0, ID: 2, Addr: addr},
		{Cycle: 5, Kind: KindMNIBegin, Op: msg.FetchAdd, MM: 0, ID: 2, Addr: addr},
		{Cycle: 7, Kind: KindMNIServe, Op: msg.FetchAdd, MM: 0, ID: 2, Addr: addr, Value: 10},
		{Cycle: 8, Kind: KindReplyHop, Stage: 1, ID: 2},
		{Cycle: 9, Kind: KindDecombine, Stage: 0, ID: 2, ID2: 1},
		{Cycle: 9, Kind: KindReplyHop, Stage: 0, ID: 2},
		{Cycle: 9, Kind: KindReplyHop, Stage: 0, ID: 1},
		{Cycle: 10, Kind: KindReplyDeliver, PE: 1, ID: 2, Value: 10},
		{Cycle: 10, Kind: KindReplyDeliver, PE: 0, ID: 1, Value: 11},
		// Untimed cache event must be skipped, not crash.
		{Cycle: -1, Kind: KindCacheHit, PE: 0, Value: 99},
		// Stall pair.
		{Cycle: 4, Kind: KindStallBegin, PE: 0, Cause: CauseMemory},
		{Cycle: 10, Kind: KindStallEnd, PE: 0, Cause: CauseMemory},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			TS   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v", err)
	}

	var lifecycles, mniSpans, stallSpans, combineInstants int
	var serves []any
	for _, ev := range file.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.PID == 1 && ev.Name != "" && ev.Args["cause"] == nil:
			lifecycles++
		case ev.Ph == "X" && ev.PID == 3:
			mniSpans++
			if s, ok := ev.Args["serves"].([]any); ok {
				serves = s
			}
		case ev.Ph == "X" && ev.Args["cause"] != nil:
			stallSpans++
		case ev.Ph == "i" && ev.Name == "combine":
			combineInstants++
		}
	}
	if lifecycles != 2 {
		t.Errorf("lifecycle spans = %d, want 2 (one per origin PE)", lifecycles)
	}
	if mniSpans != 1 {
		t.Errorf("MNI spans = %d, want exactly 1 for the combined pair", mniSpans)
	}
	if len(serves) != 2 {
		t.Errorf("MNI serves = %v, want both origin IDs", serves)
	}
	if stallSpans != 1 {
		t.Errorf("stall spans = %d, want 1", stallSpans)
	}
	if combineInstants != 1 {
		t.Errorf("combine instants = %d, want 1", combineInstants)
	}
}

func TestKindAndCauseStrings(t *testing.T) {
	if KindInject.String() == "" || KindCacheWriteBack.String() == "" {
		t.Error("Kind.String missing names")
	}
	if CauseMemory.String() == "" || CausePipeline.String() == "" {
		t.Error("StallCause.String missing names")
	}
	if Kind(200).String() == "" || StallCause(200).String() == "" {
		t.Error("out-of-range values must still render")
	}
}

// TestEventSize pins the Event layout at 72 bytes: every emit copies an
// event into each consumer, and the recorder ring is sized in events, so
// a field added to Event must fit the existing padding and a field
// widened back to int costs the copy the compiler does inline.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 72 {
		t.Fatalf("unsafe.Sizeof(obs.Event{}) = %d, want 72", got)
	}
}

// TestEventFieldBounds: the narrowed fields hold every value a machine
// network.Config.Validate admits can emit — ports up to 2^20, so PE and
// MM up to 2^20 - 1; Stages up to 20, so stage 19; Copies up to 255, so
// copy 254 — and the -1 that means "not applicable" in each, through a
// Recorder and back unchanged.
func TestEventFieldBounds(t *testing.T) {
	const maxPort = 1<<20 - 1
	// pe, mm, stage, copy as the emit sites hold them: ints.
	cases := [][4]int{
		{maxPort, maxPort, 19, 254},
		{-1, -1, -1, -1},
		{maxPort, -1, 19, -1},
		{0, maxPort, -1, 254},
	}
	r := NewRecorder(len(cases))
	for i, c := range cases {
		r.Emit(Event{Cycle: int64(i), ID: uint64(i + 1),
			PE: int32(c[0]), MM: int32(c[1]), Stage: int8(c[2]), Copy: int16(c[3])})
	}
	got := r.Events()
	if len(got) != len(cases) {
		t.Fatalf("recorder holds %d events, want %d", len(got), len(cases))
	}
	for i, ev := range got {
		if back := [4]int{int(ev.PE), int(ev.MM), int(ev.Stage), int(ev.Copy)}; back != cases[i] || ev.ID != uint64(i+1) {
			t.Errorf("event %d: pe, mm, stage, copy %v came back as %v", i, cases[i], back)
		}
	}
}

// TestSubsFor checks the audience rules: the profiler hears combines and
// serves only, the depart kinds are the tracer's alone, an unsampled
// carrier drops the tracer, and nobody attached means nobody addressed.
func TestSubsFor(t *testing.T) {
	all := SubRecord | SubTrace | SubProf
	cases := []struct {
		subs   Subs
		kind   Kind
		traced bool
		want   Subs
	}{
		{all, KindCombine, true, all},
		{all, KindMNIServe, false, SubRecord | SubProf},
		{all, KindInject, true, SubRecord | SubTrace},
		{all, KindReplyHop, false, SubRecord},
		{all, KindStageDepart, true, SubTrace},
		{all, KindReplyDepart, false, 0},
		{SubRecord | SubProf, KindStageDepart, true, 0},
		{SubTrace, KindStageArrive, false, 0},
		{SubProf, KindInject, true, 0},
		{SubProf, KindCombine, false, SubProf},
		{0, KindCombine, true, 0},
	}
	for _, c := range cases {
		if got := c.subs.For(c.kind, c.traced); got != c.want {
			t.Errorf("%03b.For(%s, %v) = %03b, want %03b", c.subs, c.kind, c.traced, got, c.want)
		}
	}
}

// TestFanoutRouting checks that an event reaches exactly the attached
// consumers it is addressed to, that the subscriber set follows
// Subscribe through the pointer units hold, and that a buffered sequence
// drains in order.
func TestFanoutRouting(t *testing.T) {
	var f Fanout
	subs := f.Subs()
	rec, tr, pf := NewRecorder(8), NewRecorder(8), NewRecorder(8)
	f.Subscribe(SubRecord, rec)
	f.Subscribe(SubTrace, tr)
	f.Subscribe(SubProf, pf)
	if *subs != SubRecord|SubTrace|SubProf {
		t.Fatalf("subs = %03b after three Subscribes", *subs)
	}
	var buf EventBuffer
	buf.Emit(Event{Cycle: 1, To: SubRecord | SubTrace})
	buf.Emit(Event{Cycle: 2, To: SubProf})
	buf.Emit(Event{Cycle: 3, To: SubRecord})
	buf.Emit(Event{Cycle: 4, To: SubTrace})
	buf.DrainTo(&f)
	if buf.Len() != 0 {
		t.Fatalf("buffer holds %d events after DrainTo", buf.Len())
	}
	cycles := func(r *Recorder) (out []int64) {
		for _, ev := range r.Events() {
			out = append(out, ev.Cycle)
		}
		return out
	}
	for _, c := range []struct {
		name string
		r    *Recorder
		want []int64
	}{{"recorder", rec, []int64{1, 3}}, {"tracer", tr, []int64{1, 4}}, {"profiler", pf, []int64{2}}} {
		if got := cycles(c.r); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s saw cycles %v, want %v", c.name, got, c.want)
		}
	}
	f.Subscribe(SubTrace, nil)
	if *subs != SubRecord|SubProf {
		t.Fatalf("subs = %03b after detaching the tracer", *subs)
	}
	f.Emit(Event{Cycle: 5, To: SubTrace}) // addressed to nobody attached: dropped
	if tr.Total() != 2 {
		t.Fatalf("detached tracer received an event")
	}
}
