package live

import (
	"fmt"
	"path/filepath"

	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/reqtrace"
)

// DefaultTailEvents bounds how many probe events one published State
// carries — enough for /events to show a request lifecycle or two per
// window — and so sizes the tail a Feed keeps. A power of two: the tail
// is indexed by mask.
const DefaultTailEvents = 256

// maxAlerts bounds the alert history carried by each State.
const maxAlerts = 32

// DefaultMaxFlightDumps bounds alert-triggered flight-recorder dumps
// per run (each alert window past the cap is still recorded in Alerts,
// it just stops writing files).
const DefaultMaxFlightDumps = 8

// AlertEvent is one structured conformance alert: a sampling window
// whose measured latency drifted beyond the model threshold (hot-spot
// onset) or whose load reached saturation.
type AlertEvent struct {
	Cycle       int64   `json:"cycle"`
	Rho         float64 `json:"rho"`
	MeasuredRT  float64 `json:"measured_rt"`
	PredictedRT float64 `json:"predicted_rt"`
	Drift       float64 `json:"drift"`
	Saturated   bool    `json:"saturated"`
}

// State is one immutable published view of the running machine. Every
// field is frozen at publish time; HTTP handlers (and anything else on
// another goroutine) may read it without synchronization beyond the
// atomic pointer load that obtained it.
type State struct {
	// Seq increments once per publish; Cycle is the snapshot's cycle.
	Seq   int64 `json:"seq"`
	Cycle int64 `json:"cycle"`
	// Done marks the final publish after the run ends.
	Done bool `json:"done"`
	// Snapshot is the sampling window's machine observation.
	Snapshot obs.Snapshot `json:"snapshot"`
	// Conformance is the model comparison for the window ending at
	// Cycle; nil until two snapshots exist or when no Monitor is
	// attached.
	Conformance *Conformance `json:"conformance,omitempty"`
	// Alerts is the recent alert history, oldest first (capped).
	Alerts []AlertEvent `json:"alerts,omitempty"`
	// FlightDumps lists the flight-recorder files written so far:
	// alert-triggered dumps of the tracer's last-N/slow-outlier spans.
	FlightDumps []string `json:"flight_dumps,omitempty"`
	// MMSkew is max/mean of the per-module served counts over the
	// window: ~1 under uniform hashed traffic, up to N when one module
	// takes all the traffic. Zero when the window served nothing.
	MMSkew float64 `json:"mm_skew"`
	// Report is the driver's own aggregate (e.g. the machine's Table-1
	// report and its delta over the window); shape is driver-defined.
	Report any `json:"report,omitempty"`
	// EventsTotal is the cumulative probe-event count; Events the most
	// recent events new to this window (served by /events, omitted from
	// /snapshot.json to keep it one readable document).
	EventsTotal int64       `json:"events_total"`
	Events      []obs.Event `json:"-"`
}

// Feed assembles States on the simulation goroutine and publishes them
// to a Server. Wire it with Attach (or set Sampler.OnRecord to Publish
// by hand); all fields must be configured before the run starts.
//
// A Feed is also the served run's event consumer (obs.Probe): it keeps
// the newest DefaultTailEvents events, which is all a State ever
// carries, and passes each one on to the -trace ring when there is one.
//
// A Feed is written and read on the simulating goroutine only — Emit
// from the emit sites (inline under the serial engine, on the
// coordinator's drain under the parallel one), Publish from
// Sampler.OnRecord, Finish and Last from the driver between cycles —
// so it has no lock. The frozen State is the only hand-off: an HTTP
// handler reaches a run through Server.Current and never through the
// Feed.
type Feed struct {
	// Server receives each published State; nil accumulates state
	// locally only (Last still works), which the tests use.
	Server *Server
	// Monitor, when non-nil, adds model conformance to each State.
	Monitor *Monitor
	// Report, when non-nil, is called during each publish (on the
	// simulation goroutine) to attach a driver-defined aggregate.
	Report func() any
	// Tracer, when non-nil together with FlightDir, turns the request
	// tracer into an alert-triggered flight recorder: every conformance
	// alert dumps the tracer's ring of recent complete spans plus the
	// slow-outlier reservoir to FlightDir/flight-<cycle>.jsonl.
	Tracer *reqtrace.Tracer
	// FlightDir is the directory flight dumps are written to (at most
	// DefaultMaxFlightDumps per run).
	FlightDir string

	// next, when non-nil, receives every event after the feed: the
	// -trace ring of a run that is traced as well as served.
	next obs.Probe

	seq      int64
	prev     obs.Snapshot
	havePrev bool
	// tail holds the newest events, event i (counting from 0) in slot
	// i mod DefaultTailEvents; total counts every event emitted and
	// prevEvents is total as of the previous publish.
	tail        [DefaultTailEvents]obs.Event
	total       int64
	prevEvents  int64
	alerts      []AlertEvent
	flightDumps []string
	last        *State
}

// Attach wires the feed to a sampler's copy-on-sample hook and returns
// the feed.
func (f *Feed) Attach(s *obs.Sampler) *Feed {
	s.OnRecord = f.Publish
	return f
}

// Emit implements obs.Probe: ev becomes the newest event of the tail.
func (f *Feed) Emit(ev obs.Event) {
	f.tail[f.total&(DefaultTailEvents-1)] = ev
	f.total++
	if f.next != nil {
		f.next.Emit(ev)
	}
}

// fresh copies out the events emitted since the previous publish,
// oldest first — the newest DefaultTailEvents of them when there were
// more — and marks them published.
func (f *Feed) fresh() []obs.Event {
	n := min(f.total-f.prevEvents, DefaultTailEvents)
	f.prevEvents = f.total
	if n == 0 {
		return nil
	}
	out := make([]obs.Event, n)
	k := copy(out, f.tail[(f.total-n)&(DefaultTailEvents-1):])
	copy(out[k:], f.tail[:])
	return out
}

// Publish builds the immutable State for one recorded snapshot and
// hands it to the Server with an atomic pointer swap. It runs on the
// simulation goroutine; sn must already be detached from mutable
// simulator state (obs.Sampler snapshots are).
func (f *Feed) Publish(sn obs.Snapshot) {
	f.seq++
	st := &State{Seq: f.seq, Cycle: sn.Cycle, Snapshot: sn}
	if f.Monitor != nil && f.havePrev {
		c := f.Monitor.Compare(f.prev, sn)
		st.Conformance = &c
		if c.Alert {
			f.alerts = append(f.alerts, AlertEvent{
				Cycle: c.Cycle, Rho: c.Rho, MeasuredRT: c.MeasuredRT,
				PredictedRT: c.PredictedRT, Drift: c.Drift, Saturated: c.Saturated,
			})
			if len(f.alerts) > maxAlerts {
				f.alerts = f.alerts[len(f.alerts)-maxAlerts:]
			}
			f.dumpFlight(c.Cycle)
		}
	}
	if len(f.alerts) > 0 {
		st.Alerts = append([]AlertEvent(nil), f.alerts...)
	}
	if len(f.flightDumps) > 0 {
		st.FlightDumps = append([]string(nil), f.flightDumps...)
	}
	if f.havePrev {
		st.MMSkew = servedSkew(f.prev.MMServedPerModule, sn.MMServedPerModule)
	}
	st.Events = f.fresh()
	st.EventsTotal = f.total
	if f.Report != nil {
		st.Report = f.Report()
	}
	f.prev = sn
	f.havePrev = true
	f.last = st
	if f.Server != nil {
		f.Server.Publish(st)
	}
}

// dumpFlight writes one alert-triggered flight-recorder file: the
// tracer's bounded ring of recent complete spans plus the slow-outlier
// reservoir, as JSONL. Write errors drop the dump silently — the
// flight recorder is diagnostics, never allowed to kill the run.
func (f *Feed) dumpFlight(cycle int64) {
	if f.Tracer == nil || f.FlightDir == "" || len(f.flightDumps) >= DefaultMaxFlightDumps {
		return
	}
	path := filepath.Join(f.FlightDir, fmt.Sprintf("flight-%d.jsonl", cycle))
	if WriteFile(path, f.Tracer.WriteFlightJSONL) == nil {
		f.flightDumps = append(f.flightDumps, path)
	}
}

// FlightDumps returns the flight files written so far (driver-side
// convenience; not safe concurrently with Publish).
func (f *Feed) FlightDumps() []string { return f.flightDumps }

// Finish republishes the last State marked Done, signaling followers of
// /events that no more data is coming. Call it once after the run.
func (f *Feed) Finish() {
	if f.last == nil {
		return
	}
	f.seq++
	final := *f.last
	final.Seq = f.seq
	final.Done = true
	final.Events = nil // already streamed; Done carries no new events
	f.last = &final
	if f.Server != nil {
		f.Server.Publish(&final)
	}
}

// Last returns the most recently built State (nil before the first
// publish). Driver-side convenience for end-of-run summaries; it is not
// safe to call concurrently with Publish.
func (f *Feed) Last() *State { return f.last }

// servedSkew is max/mean of the per-module served-count deltas over a
// window: the hot-spot skew diagnostic.
func servedSkew(prev, cur []int64) float64 {
	if len(cur) == 0 || len(prev) != len(cur) {
		return 0
	}
	var total, max int64
	for i := range cur {
		d := cur[i] - prev[i]
		if d < 0 {
			d = 0
		}
		total += d
		if d > max {
			max = d
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(cur))
	return float64(max) / mean
}
