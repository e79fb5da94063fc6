package memory

import (
	"fmt"
	"reflect"
	"testing"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
)

// serveLog is a profiler probe recording the serves it is sent.
type serveLog struct{ calls [][3]int }

func (l *serveLog) Emit(ev obs.Event) {
	l.calls = append(l.calls, [3]int{int(ev.MM), ev.Addr.Word, int(ev.Op)})
}

// kinds renders a consumer's view of a run as "cycle:Kind@mm" strings.
func kinds(r *obs.Recorder) (out []string) {
	for _, ev := range r.Events() {
		out = append(out, fmt.Sprintf("%d:%s@%d", ev.Cycle, ev.Kind, ev.MM))
	}
	return out
}

// TestBankEventsOneChannel serves one sampled and one unsampled request
// on a two-module bank with recorder, tracer and profiler attached, and
// checks what each consumer receives — the recorder every service event,
// the tracer the sampled request's alone plus its reply leaving the MNI,
// the profiler one call per completed serve — inline and, Buffered,
// after Flush: identical, in module order, with nothing reaching a
// consumer before the flush.
func TestBankEventsOneChannel(t *testing.T) {
	run := func(buffered bool) (rec, tr []string, prof [][3]int) {
		b := NewBank(2, 2, Interleave{N: 2})
		r, tc, pf := obs.NewRecorder(64), obs.NewRecorder(64), &serveLog{}
		b.SetProbe(r)
		b.SetTracer(tc)
		b.SetProfiler(pf)
		if buffered {
			b.Buffered()
		}
		// Module 1 gets the sampled request, module 0 the unsampled one.
		ports := []*scriptPort{
			{in: []msg.Request{{ID: 7, PE: 3, Op: msg.Load, Addr: msg.Addr{MM: 0, Word: 4}}}},
			{in: []msg.Request{{ID: 9, PE: 2, Op: msg.FetchAdd, Addr: msg.Addr{MM: 1, Word: 6}, Operand: 1, TC: msg.TraceCtx{ID: 9}}}},
		}
		for cycle := int64(0); cycle < 4; cycle++ {
			for mm := len(ports) - 1; mm >= 0; mm-- { // worker order is not module order
				b.Modules[mm].Step(cycle, ports[mm])
			}
			if buffered && r.Total() != 0 {
				t.Fatalf("cycle %d: a buffered bank delivered %d events before Flush", cycle, r.Total())
			}
		}
		b.Flush()
		return kinds(r), kinds(tc), pf.calls
	}
	rec, tr, prof := run(true)
	wantRec := []string{"0:MNIBegin@0", "2:MNIServe@0", "0:MNIBegin@1", "2:MNIServe@1"}
	wantTr := []string{"0:MNIBegin@1", "2:MNIServe@1", "2:ReplyHop@1"}
	wantProf := [][3]int{{0, 4, int(msg.Load)}, {1, 6, int(msg.FetchAdd)}}
	if !reflect.DeepEqual(rec, wantRec) || !reflect.DeepEqual(tr, wantTr) || !reflect.DeepEqual(prof, wantProf) {
		t.Errorf("buffered bank:\n recorder %v\n tracer   %v\n profiler %v", rec, tr, prof)
	}
	// Inline, modules stepped in the same (descending) order emit as they go.
	rec, tr, prof = run(false)
	wantRec = []string{"0:MNIBegin@1", "0:MNIBegin@0", "2:MNIServe@1", "2:MNIServe@0"}
	wantProf = [][3]int{{1, 6, int(msg.FetchAdd)}, {0, 4, int(msg.Load)}}
	if !reflect.DeepEqual(rec, wantRec) || !reflect.DeepEqual(tr, wantTr) || !reflect.DeepEqual(prof, wantProf) {
		t.Errorf("inline bank:\n recorder %v\n tracer   %v\n profiler %v", rec, tr, prof)
	}
}

// TestBufferedBankUnsampledBuffersNothing is the memory half of the
// network's test of the same name: with a tracer as the only consumer a
// module serving unsampled requests never touches its buffer, and a
// module outside any bank emits nothing at all.
func TestBufferedBankUnsampledBuffersNothing(t *testing.T) {
	b := NewBank(1, 1, Interleave{N: 1})
	tr := obs.NewRecorder(8)
	b.SetTracer(tr)
	b.Buffered()
	lone := NewModule(0, 1)
	var in []msg.Request
	for i := 0; i < 50; i++ {
		in = append(in, msg.Request{ID: uint64(i + 1), Op: msg.FetchAdd, Operand: 1})
	}
	p, q := &scriptPort{in: in, refuse: 3}, &scriptPort{in: in}
	for cycle := int64(0); cycle < 200; cycle++ {
		b.Modules[0].Step(cycle, p)
		lone.Step(cycle, q)
		if n := b.bufs[0].Len(); n != 0 {
			t.Fatalf("cycle %d: the module buffered %d events for unsampled requests", cycle, n)
		}
	}
	if len(p.out) != 50 || len(q.out) != 50 {
		t.Fatalf("served %d and %d of 50 requests", len(p.out), len(q.out))
	}
	b.Flush()
	if tr.Total() != 0 {
		t.Fatalf("the tracer received %d events for unsampled requests", tr.Total())
	}
}
