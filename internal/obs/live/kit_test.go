package live

import (
	"fmt"
	"testing"

	"ultracomputer/internal/obs"
)

// The one rule for which consumers an output implies (doc.go's table).
func TestKitConsumersFollowOutputs(t *testing.T) {
	mounted := NewFeedServer()
	cases := []struct {
		name                             string
		flags                            Flags
		srv                              *Server
		rec, sampler, tracer, feed, live bool
	}{
		{name: "nothing"},
		{name: "threshold alone", flags: Flags{Threshold: 2}},
		{name: "-trace", flags: Flags{Trace: "t"}, rec: true},
		{name: "-metrics", flags: Flags{Metrics: "m"}, sampler: true},
		{name: "-reqtrace", flags: Flags{ReqRate: 0.5}, tracer: true},
		{name: "-spans", flags: Flags{Spans: "s"}, tracer: true},
		{name: "-flight-dir", flags: Flags{FlightDir: "d"}, sampler: true, tracer: true, feed: true},
		{name: "-serve", flags: Flags{Serve: ":0"}, sampler: true, feed: true, live: true},
		{name: "session", srv: mounted, sampler: true, feed: true, live: true},
		{name: "-trace -serve", flags: Flags{Trace: "t", Serve: ":0"}, rec: true, sampler: true, feed: true, live: true},
		{name: "-metrics -serve", flags: Flags{Metrics: "m", Serve: ":0"}, sampler: true, feed: true, live: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := tc.flags.New(16, 8, tc.srv, nil)
			got := fmt.Sprint(k.Recorder != nil, k.Sampler != nil, k.Tracer != nil, k.Feed != nil, k.srv != nil)
			want := fmt.Sprint(tc.rec, tc.sampler, tc.tracer, tc.feed, tc.live)
			if got != want {
				t.Errorf("recorder/sampler/tracer/feed/server = %s, want %s", got, want)
			}
			if tc.srv != nil && k.srv != tc.srv {
				t.Error("a mounted server must be used, not replaced")
			}
			if k.Feed != nil && k.Feed.Tracer != k.Tracer {
				t.Error("the feed must see the kit's tracer")
			}
			// Events go where a reader is: to a served run's feed, which
			// passes them on to the -trace ring, or to that ring directly.
			var probe, next obs.Probe
			if tc.rec {
				probe = k.Recorder
			}
			if tc.live {
				probe, next = k.Feed, probe
			}
			if k.Probe != probe {
				t.Errorf("the run's probe is %T, want %T", k.Probe, probe)
			}
			if k.Feed != nil && k.Feed.next != next {
				t.Errorf("the feed passes events on to %T, want %T", k.Feed.next, next)
			}
			// The series is kept for -metrics alone.
			if k.Sampler != nil && k.Sampler.LastOnly != (tc.flags.Metrics == "") {
				t.Errorf("sampler LastOnly = %v with -metrics %q", k.Sampler.LastOnly, tc.flags.Metrics)
			}
		})
	}
}

// Any is netperf's switch into instrumented mode: every output flag
// flips it, the alert threshold alone does not.
func TestFlagsAny(t *testing.T) {
	if (Flags{}).Any() || (Flags{Threshold: 2}).Any() {
		t.Error("no output requested, yet Any() is true")
	}
	for _, f := range []Flags{{Trace: "t"}, {Metrics: "m"}, {Serve: ":0"}, {ReqRate: 0.1}, {Spans: "s"}, {FlightDir: "d"}} {
		if !f.Any() {
			t.Errorf("%+v: Any() is false", f)
		}
	}
}
