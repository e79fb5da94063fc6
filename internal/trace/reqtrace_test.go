package trace

import (
	"bytes"
	"testing"

	"ultracomputer/internal/network"
	"ultracomputer/internal/obs/reqtrace"
)

// hotSpotTracer runs the Figure-7 hot-spot load with every request
// traced and returns the tracer.
func hotSpotTracer(t *testing.T, combining bool) (*reqtrace.Tracer, Result) {
	t.Helper()
	tr := reqtrace.New(reqtrace.Config{Rate: 1, Seed: 7, Ring: 1 << 14})
	w := Workload{
		Rate:        0.25,
		HotFraction: 0.5,
		Seed:        7,
	}
	w.Tracer = tr
	res := Run(network.Config{K: 2, Stages: 4, Combining: combining}, w, 200, 1500)
	return tr, res
}

// TestTracerCombiningGenealogy is the PR's acceptance criterion for the
// combining genealogy: a hot-spot run with combining enabled must
// produce span trees whose combine links join at least two requests at
// a switch, and the identical run with combining disabled must produce
// none.
func TestTracerCombiningGenealogy(t *testing.T) {
	tr, res := hotSpotTracer(t, true)
	if res.Combines == 0 {
		t.Fatal("hot-spot run with combining on combined nothing — load too light to prove anything")
	}
	if tr.CombineLinks() < 2 {
		t.Fatalf("combining run recorded %d genealogy links, want >= 2", tr.CombineLinks())
	}

	// The links must be visible in the span trees themselves: children
	// carry Parent, parents carry Children, and both sides recorded a
	// combine hop at a real switch stage.
	spans := tr.Spans()
	byID := make(map[uint64]*reqtrace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var children, parents int
	for _, s := range spans {
		if s.Parent != 0 {
			children++
			// A span may combine several times — first as a parent
			// (absorbing others), finally as the absorbed child — so the
			// parent link is the combine hop whose peer is the absorber.
			hop := combineHopWithPeer(s, s.Parent)
			if hop == nil {
				t.Fatalf("span %d has Parent %d but no matching combine hop", s.ID, s.Parent)
			}
			if hop.Stage < 0 {
				t.Fatalf("span %d combine hop has no switch stage: %+v", s.ID, *hop)
			}
			if p, ok := byID[s.Parent]; ok && !containsID(p.Children, s.ID) {
				t.Fatalf("parent span %d does not list child %d", p.ID, s.ID)
			}
		}
		if len(s.Children) > 0 {
			parents++
		}
	}
	if children == 0 || parents == 0 {
		t.Fatalf("completed spans show %d children / %d parents, want both > 0", children, parents)
	}

	// Decombining closes the tree: every completed child waited in a
	// wait buffer, so it must have a decombine hop and its reply value.
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		var dec bool
		for i := range s.Hops {
			if s.Hops[i].Kind == reqtrace.HopDecombine {
				dec = true
			}
		}
		if !dec {
			t.Fatalf("combined child span %d completed without a decombine hop", s.ID)
		}
	}

	// Control: the same load without combining must link nothing.
	tr2, _ := hotSpotTracer(t, false)
	if tr2.CombineLinks() != 0 {
		t.Fatalf("no-combining run recorded %d genealogy links, want 0", tr2.CombineLinks())
	}
	for _, s := range tr2.Spans() {
		if s.Parent != 0 || len(s.Children) > 0 {
			t.Fatalf("no-combining span %d carries genealogy: parent=%d children=%v",
				s.ID, s.Parent, s.Children)
		}
	}
}

func combineHopWithPeer(s *reqtrace.Span, peer uint64) *reqtrace.Hop {
	for i := range s.Hops {
		if s.Hops[i].Kind == reqtrace.HopCombine && s.Hops[i].Peer == peer {
			return &s.Hops[i]
		}
	}
	return nil
}

func containsID(ids []uint64, id uint64) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// TestTracerSpanShape checks every completed span is a well-formed
// timeline: opens with an inject hop, hop cycles never go backward,
// MNI service happens at the span's own module (except adopted spans,
// which open mid-flight), and delivery closes the span with the
// latency accounted.
func TestTracerSpanShape(t *testing.T) {
	tr, _ := hotSpotTracer(t, true)
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no completed spans")
	}
	for _, s := range spans {
		if len(s.Hops) == 0 {
			t.Fatalf("span %d has no hops", s.ID)
		}
		if !s.Adopted && s.Hops[0].Kind != reqtrace.HopInject {
			t.Fatalf("span %d opens with %v, want inject", s.ID, s.Hops[0].Kind)
		}
		last := s.Hops[0].Cycle
		for _, h := range s.Hops[1:] {
			if h.Cycle < last {
				t.Fatalf("span %d: hop cycles go backward (%d after %d)", s.ID, h.Cycle, last)
			}
			last = h.Cycle
		}
		end := s.Hops[len(s.Hops)-1]
		if end.Kind != reqtrace.HopDeliver {
			t.Fatalf("span %d ends with %v, want deliver", s.ID, end.Kind)
		}
		if s.Latency != s.Done-s.Issued {
			t.Fatalf("span %d latency %d != done-issued %d", s.ID, s.Latency, s.Done-s.Issued)
		}
		// A request that reached memory itself (was not absorbed into a
		// partner) must have served at its own module.
		for _, h := range s.Hops {
			if h.Kind == reqtrace.HopMNIServe && int(h.MM) != s.MM {
				t.Fatalf("span %d served at MM %d, addressed MM %d", s.ID, h.MM, s.MM)
			}
		}
	}
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d events during a rate-1 run", tr.Dropped())
	}
}

// TestTracerExports sanity-checks the two export formats: spans JSONL
// reads back what was written, combine genealogy included, and the
// flight dump is a superset ordered by completion.
func TestTracerExports(t *testing.T) {
	tr, _ := hotSpotTracer(t, true)

	var sb bytes.Buffer
	if err := tr.WriteSpansJSONL(&sb); err != nil {
		t.Fatalf("WriteSpansJSONL: %v", err)
	}
	back, err := reqtrace.ReadSpans(bytes.NewReader(sb.Bytes()))
	if err != nil {
		t.Fatalf("ReadSpans: %v", err)
	}
	want := tr.Spans()
	if len(back) != len(want) {
		t.Fatalf("round-trip %d spans, wrote %d", len(back), len(want))
	}
	combined := 0
	for i := range back {
		if back[i].ID != want[i].ID || len(back[i].Hops) != len(want[i].Hops) {
			t.Fatalf("span %d round-trips as id=%d hops=%d, want id=%d hops=%d",
				i, back[i].ID, len(back[i].Hops), want[i].ID, len(want[i].Hops))
		}
		if back[i].Combined() != want[i].Combined() {
			t.Fatalf("span %d round-trips combined=%v, want %v", i, back[i].Combined(), want[i].Combined())
		}
		if back[i].Combined() {
			combined++
		}
	}
	if combined == 0 {
		t.Fatal("span dump records no combine on a combining hot-spot run")
	}

	var fb bytes.Buffer
	if err := tr.WriteFlightJSONL(&fb); err != nil {
		t.Fatalf("WriteFlightJSONL: %v", err)
	}
	if fb.Len() < sb.Len() {
		t.Fatalf("flight dump (%d bytes) smaller than span dump (%d bytes)", fb.Len(), sb.Len())
	}
}

// TestTracerSamplingRate checks partial sampling traces a plausible
// subset: some requests traced, some not, all sampled IDs stable under
// the pure hash (two tracers with one seed agree).
func TestTracerSamplingRate(t *testing.T) {
	a := reqtrace.New(reqtrace.Config{Rate: 0.3, Seed: 5})
	b := reqtrace.New(reqtrace.Config{Rate: 0.3, Seed: 5})
	traced := 0
	const total = 4096
	for i := uint64(1); i <= total; i++ {
		id := i<<32 | i
		ca, cb := a.ContextFor(id), b.ContextFor(id)
		if ca != cb {
			t.Fatalf("sampling not reproducible for id %d: %+v vs %+v", id, ca, cb)
		}
		if ca.Traced() {
			traced++
		}
	}
	frac := float64(traced) / total
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("rate-0.3 sampler traced %.3f of requests", frac)
	}
	off := reqtrace.New(reqtrace.Config{Rate: 0})
	if off.ContextFor(42).Traced() {
		t.Fatal("rate-0 sampler traced a request")
	}
	all := reqtrace.New(reqtrace.Config{Rate: 1})
	if !all.ContextFor(42).Traced() {
		t.Fatal("rate-1 sampler skipped a request")
	}
}
