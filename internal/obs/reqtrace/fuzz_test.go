package reqtrace

import (
	"reflect"
	"testing"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
)

// refTracer assembles the events a Tracer hears into spans the plain
// way: a map of open spans, each growing its own Hops and Children from
// nil, nothing recycled and nothing carved. It is the referee for the
// tracer's storage: whatever the tracer's chunks, windows and free list
// do, a completed span must come out as this one does.
type refTracer struct {
	active map[uint64]*Span
	latN   int64
	mean   float64
}

func (r *refTracer) open(id uint64, pe int, op string, a msg.Addr, cycle int64) *Span {
	s := &Span{ID: id, PE: pe, Op: op, MM: a.MM, Word: a.Word, Issued: cycle}
	r.active[id] = s
	return s
}

func (r *refTracer) orAdopt(id uint64, pe int, op string, a msg.Addr, cycle int64) *Span {
	if s := r.active[id]; s != nil {
		return s
	}
	s := r.open(id, pe, op, a, cycle)
	s.Adopted = true
	return s
}

// emit applies ev and returns the span it completed, if any.
func (r *refTracer) emit(ev obs.Event) *Span {
	hop := func(h Hop) *Span {
		s := r.active[ev.ID]
		if s != nil {
			s.Hops = append(s.Hops, h)
		}
		return s
	}
	switch ev.Kind {
	case obs.KindInject:
		s := r.open(ev.ID, int(ev.PE), ev.Op.String(), ev.Addr, ev.Cycle)
		s.Hops = append(s.Hops, Hop{Kind: HopInject, Cycle: ev.Cycle, Stage: -1, Copy: ev.Copy, MM: -1})
	case obs.KindStageArrive:
		hop(Hop{Kind: HopEnqueue, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1, Q: ev.Aux})
	case obs.KindStageDepart:
		hop(Hop{Kind: HopDequeue, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1})
	case obs.KindCombine:
		child := r.orAdopt(ev.ID, int(ev.PE), ev.Op.String(), ev.Addr, ev.Cycle)
		parent := r.orAdopt(ev.ID2, int(ev.Aux), "", ev.Addr, ev.Cycle)
		child.Parent = ev.ID2
		child.waitStart = ev.Cycle
		child.Hops = append(child.Hops, Hop{Kind: HopCombine, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1, Peer: ev.ID2})
		parent.Children = append(parent.Children, ev.ID)
		parent.Hops = append(parent.Hops, Hop{Kind: HopCombine, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1, Peer: ev.ID})
	case obs.KindDecombine:
		if p := r.active[ev.ID]; p != nil {
			p.Hops = append(p.Hops, Hop{Kind: HopDecombine, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1, Peer: ev.ID2})
		}
		if c := r.active[ev.ID2]; c != nil {
			c.Hops = append(c.Hops, Hop{Kind: HopDecombine, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1, Peer: ev.ID})
			c.WaitCycles = ev.Cycle - c.waitStart
		}
	case obs.KindMMArrive:
		hop(Hop{Kind: HopMMArrive, Cycle: ev.Cycle, Stage: -1, Copy: ev.Copy, MM: ev.MM})
	case obs.KindMNIBegin, obs.KindMNIServe:
		k := HopMNIBegin
		if ev.Kind == obs.KindMNIServe {
			k = HopMNIServe
		}
		if s := hop(Hop{Kind: k, Cycle: ev.Cycle, Stage: -1, Copy: -1, MM: ev.MM}); s != nil && s.Op == "" {
			s.Op = ev.Op.String()
		}
	case obs.KindReplyHop:
		if ev.MM >= 0 {
			hop(Hop{Kind: HopReplyOut, Cycle: ev.Cycle, Stage: -1, Copy: ev.Copy, MM: ev.MM})
		} else {
			hop(Hop{Kind: HopReplyHop, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1})
		}
	case obs.KindReplyDepart:
		hop(Hop{Kind: HopReplyDepart, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: ev.MM})
	case obs.KindReplyDeliver:
		s := hop(Hop{Kind: HopDeliver, Cycle: ev.Cycle, Stage: -1, Copy: -1, MM: -1})
		if s == nil {
			return nil
		}
		delete(r.active, s.ID)
		s.Value, s.Done, s.Latency = ev.Value, ev.Cycle, ev.Cycle-s.Issued
		lat := float64(s.Latency)
		s.Slow = r.latN >= DefaultMinSlowSamples && lat > DefaultSlowFactor*r.mean
		r.latN++
		r.mean += (lat - r.mean) / float64(r.latN)
		s.waitStart = 0
		return s
	}
	return nil
}

// clone deep-copies spans, so a later comparison sees whether the
// originals were written.
func clone(spans []*Span) []Span {
	out := make([]Span, len(spans))
	for i, s := range spans {
		out[i] = *s
		out[i].Hops = append([]Hop(nil), s.Hops...)
		out[i].Children = append([]uint64(nil), s.Children...)
	}
	return out
}

// fuzzKinds are the kinds a fuzzed stream draws from, delivery weighted
// so that spans complete and recycle.
var fuzzKinds = [...]obs.Kind{
	obs.KindInject, obs.KindStageArrive, obs.KindStageDepart, obs.KindCombine,
	obs.KindDecombine, obs.KindMMArrive, obs.KindMNIBegin, obs.KindMNIServe,
	obs.KindReplyHop, obs.KindReplyDepart, obs.KindReplyDeliver, obs.KindReplyDeliver,
}

// FuzzTracerEmit: a random stream of inject, hop, combine, decombine and
// deliver events over a few request IDs, fed to a Tracer with a small
// ring and a seeded trip room the stream's trips outgrow, completes every
// span exactly as the plain per-span assembly of the same stream does —
// carved spans and hop windows, recycled from the free list or not, never
// reach a neighbour's storage. And what Spans and SlowSpans handed out
// along the way is never written again.
func FuzzTracerEmit(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 1, 3, 2, 1, 1, 10, 1, 4})
	f.Add([]byte{
		0, 1, 1, 0, 2, 1, 3, 1, 0x22, 1, 1, 3, 1, 2, 3, 4, 1, 0x21, 4, 2, 0x12,
		10, 1, 2, 10, 2, 2, 11, 3, 2, 0, 3, 1, 1, 3, 1, 10, 3, 9,
	})
	long := []byte{0, 5, 1}
	for i := 0; i < 60; i++ {
		long = append(long, byte(1+i%2), 5, byte(i))
	}
	f.Add(append(long, 10, 5, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tr := New(Config{Rate: 1, Ring: 1 + int(data[0]%6)})
		tr.ExpectTrip(int(data[0] / 6 % 3)) // room for 8, 12 or 16 hops
		ref := &refTracer{active: make(map[uint64]*Span)}
		var held [][]*Span
		var heldCopy [][]Span
		cycle := int64(1)
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			k, a, b := data[0], data[1], data[2]
			id := uint64(a%4)<<32 | uint64(a>>2%4+1)
			cycle += int64(b % 4)
			ev := obs.Event{
				To: obs.SubTrace, Kind: fuzzKinds[int(k)%len(fuzzKinds)], Cycle: cycle, ID: id,
				PE: int32(id >> 32), Stage: int8(b % 6), MM: int32(b%3) - 1, Copy: int16(b % 2),
				Op: msg.Op(b % 3), Addr: msg.Addr{MM: int(a % 5), Word: int(b)}, Value: int64(a) * 3, Aux: int32(b),
			}
			if ev.Kind == obs.KindInject && ref.active[id] != nil {
				continue // the network never injects a request twice
			}
			if ev.Kind == obs.KindCombine || ev.Kind == obs.KindDecombine {
				ev.ID2 = uint64(b%4)<<32 | uint64(b>>2%4+1)
				ev.Aux = int32(ev.ID2 >> 32)
			}
			want := ref.emit(ev)
			tr.Emit(ev)
			if want == nil {
				continue
			}
			ring := tr.Spans()
			got := ring[len(ring)-1]
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("span completed as\n %+v\nwant\n %+v", *got, *want)
			}
			if tr.Completed()%3 == 0 {
				snap := append(ring, tr.SlowSpans()...)
				held, heldCopy = append(held, snap), append(heldCopy, clone(snap))
			}
		}
		if tr.Active() != len(ref.active) {
			t.Errorf("%d spans open, want %d", tr.Active(), len(ref.active))
		}
		for i, snap := range held {
			for j, s := range snap {
				if !reflect.DeepEqual(*s, heldCopy[i][j]) {
					t.Fatalf("snapshot %d's span %d changed under its holder:\n %+v\nwas\n %+v", i, j, *s, heldCopy[i][j])
				}
			}
		}
	})
}
