package live

import (
	"runtime"
	"testing"

	"ultracomputer/internal/obs"
)

// TestFeedEmitZeroAlloc: a served run's emit path — the feed's tail, and
// through it the -trace ring when there is one — allocates nothing per
// event.
func TestFeedEmitZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags Flags
	}{{"served", Flags{}}, {"served and traced", Flags{Trace: "t"}}} {
		k := tc.flags.New(64, NewFeedServer(), nil)
		ev := obs.Event{Kind: obs.KindInject, ID: 1}
		if n := testing.AllocsPerRun(2000, func() { k.Probe.Emit(ev) }); n != 0 {
			t.Errorf("%s: Emit allocates %v objects per event, want 0", tc.name, n)
		}
	}
}

// TestServedKitAllocBudget: what a served run holds is sized by its
// readers — the feed's 256-event tail, a sampler, a server — whatever
// ring capacity its caller passes for a -trace it did not ask for. (The
// parent built the 92 MB ring here.)
func TestServedKitAllocBudget(t *testing.T) {
	const budget = 64 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k := Flags{Serve: "127.0.0.1:0"}.New(64, nil, nil)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("a served kit allocates %d bytes, budget %d", got, budget)
	}
	if k.Recorder != nil || k.Feed == nil {
		t.Errorf("served kit: recorder %v, feed %v; want no recorder and a feed", k.Recorder != nil, k.Feed != nil)
	}
}
