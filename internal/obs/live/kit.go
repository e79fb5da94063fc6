package live

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"

	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/obs/reqtrace"
)

// Flags is the observation flag set shared by cmd/ultrasim, cmd/netperf
// and examples/hotspot: which outputs a run should produce. The
// consumers each output needs follow from it (New; the table is in the
// package documentation).
type Flags struct {
	Trace, Metrics   string  // -trace, -metrics: output files
	Serve            string  // -serve: telemetry listen address
	Threshold        float64 // -conformance-threshold
	ReqRate          float64 // -reqtrace: sampling rate
	Spans, FlightDir string  // -spans, -flight-dir
}

// Register binds the flag set to fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace_event JSON of the run to this file (open in Perfetto)")
	fs.StringVar(&f.Metrics, "metrics", "", "write sampled per-stage metrics as JSONL to this file")
	fs.StringVar(&f.Serve, "serve", "", "serve live telemetry on this address while the run executes (/metrics, /snapshot.json, /events, /trace/flight, /healthz, /debug/pprof/)")
	fs.Float64Var(&f.Threshold, "conformance-threshold", 0, "measured/predicted round-trip drift ratio that raises the model-conformance alert (0 = default)")
	fs.Float64Var(&f.ReqRate, "reqtrace", 0, "fraction of memory requests to trace causally PE->switches->MM->PE (0 = off, 1 = all)")
	fs.StringVar(&f.Spans, "spans", "", "write completed request-trace spans as JSONL to this file (implies -reqtrace 1 when the rate is unset)")
	fs.StringVar(&f.FlightDir, "flight-dir", "", "directory for alert-triggered flight-recorder dumps, flight-<cycle>.jsonl (implies -reqtrace 1 when the rate is unset)")
}

// Any reports whether the flags ask for any output at all (the alert
// threshold alone asks for none).
func (f Flags) Any() bool {
	f.Threshold = 0
	return f != Flags{}
}

// Kit is one run's observation harness: the consumers its Flags imply
// (nil where nothing asked for one; the driver takes them whole, as
// machine.Observe(k.Observers) or into trace.Workload), the feed that
// publishes them, and the end-of-run export. Use it in order: New, hand
// over Observers, Start, the run, Finish, Hold.
type Kit struct {
	prof.Observers
	// Recorder is the -trace ring, nil unless -trace asked for it. It is
	// Observers.Probe itself, or what a served run's feed passes every
	// event on to.
	Recorder *obs.Recorder
	Feed     *Feed

	flags Flags
	srv   *Server
	hs    *http.Server // the -serve listener, once Start opened it
}

// traceRing is the -trace ring's capacity in events. Tests shrink it:
// none needs a million events, and one needs the ring to wrap.
var traceRing = obs.DefaultRecorderCapacity

// New builds the consumers f's outputs imply, each sized by its reader
// (the -trace ring holds traceRing events; a served run's events live in
// the feed's own tail). The caller supplies what
// differs between drivers: the sampling period in network cycles, an
// already mounted feed server (a service session's; nil otherwise — it
// counts as -serve without the listener) and the guest profiler when the
// driver could build one.
func (f Flags) New(every int64, srv *Server, p *prof.Profiler) *Kit {
	k := &Kit{Observers: prof.Observers{Profiler: p}, flags: f, srv: srv}
	if f.Serve != "" && srv == nil {
		k.srv = NewServer()
	}
	served := k.srv != nil
	if f.Trace != "" {
		k.Recorder = obs.NewRecorder(traceRing)
		k.Probe = k.Recorder
	}
	if f.Metrics != "" || f.FlightDir != "" || served {
		k.Sampler = obs.NewSampler(every)
		// Only -metrics exports the series; every other reader (the
		// feed, a session's final publish) wants the last snapshot.
		k.Sampler.LastOnly = f.Metrics == ""
	}
	if f.ReqRate > 0 || f.Spans != "" || f.FlightDir != "" {
		rate := f.ReqRate
		if rate == 0 {
			rate = 1
		}
		k.Tracer = reqtrace.New(reqtrace.Config{Rate: rate})
	}
	if f.FlightDir != "" || served {
		k.Feed = &Feed{Server: k.srv, Tracer: k.Tracer, FlightDir: f.FlightDir}
		k.Feed.Attach(k.Sampler)
	}
	if served {
		k.Feed.next = k.Probe
		k.Probe = k.Feed
	}
	return k
}

// Start arms the feed for a machine of the given network shape and MM
// latency (the conformance model's inputs) and, under -serve, opens the
// listener and prints its address to w. report, when non-nil, is the
// driver's aggregate attached to every served State (see Windowed).
func (k *Kit) Start(w io.Writer, net network.Config, mmLatency int64, report func() any) error {
	if k.Feed == nil {
		return nil
	}
	k.Feed.Monitor = NewMonitor(ModelFor(net, mmLatency, k.flags.Threshold))
	if k.srv == nil {
		return nil
	}
	k.Feed.Report = report
	if k.Tracer != nil {
		k.srv.SetFlight(k.Tracer)
	}
	if k.Profiler != nil {
		k.Profiler.EnableLive()
		k.srv.SetProfile(k.Profiler)
	}
	if k.flags.Serve == "" {
		return nil
	}
	hs, bound, err := k.srv.Start(k.flags.Serve)
	if err != nil {
		return err
	}
	k.hs = hs
	fmt.Fprintf(w, "telemetry: http://%s/metrics\n", bound)
	return nil
}

// Windowed turns a cumulative report with a Delta method into the
// served Total/Window pair: everything so far, and what changed since
// the previous publish.
func Windowed[R interface{ Delta(R) R }](total func() R) func() any {
	var prev R
	return func() any {
		cur := total()
		win := cur.Delta(prev)
		prev = cur
		return struct {
			Total  R `json:"total"`
			Window R `json:"window"`
		}{cur, win}
	}
}

// Finish ends the run's observation: it marks the feed done, then
// writes every requested file, summarizing each on w.
func (k *Kit) Finish(w io.Writer) error {
	if k.Feed != nil {
		k.Feed.Finish()
		if st := k.Feed.Last(); st != nil && st.Conformance != nil {
			c := st.Conformance
			fmt.Fprintf(w, "model conformance: %s\n", c)
			if c.Alerts > 0 {
				fmt.Fprintf(w, "  %d alerting windows (drift > %.2f or saturation)\n", c.Alerts, c.Threshold)
			}
		}
	}
	if path := k.flags.Trace; path != "" {
		if err := WriteFile(path, func(f io.Writer) error {
			return obs.WriteChromeTrace(f, k.Recorder.Events())
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d events", path, k.Recorder.Len())
		if d := k.Recorder.Overwritten(); d > 0 {
			fmt.Fprintf(w, "; ring dropped the oldest %d", d)
		}
		fmt.Fprintln(w, ")")
	}
	if path := k.flags.Metrics; path != "" {
		if err := WriteFile(path, k.Sampler.WriteJSONL); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d samples)\n", path, len(k.Sampler.Snapshots()))
	}
	if t := k.Tracer; t != nil {
		fmt.Fprintf(w, "request tracing: %d spans completed, %d combine links, mean latency %.1f cycles\n",
			t.Completed(), t.CombineLinks(), t.MeanLatency())
		if d := t.Dropped(); d > 0 {
			fmt.Fprintf(w, "  tracer dropped %d events (ring too small for the sampling rate)\n", d)
		}
		if path := k.flags.Spans; path != "" {
			if err := WriteFile(path, t.WriteSpansJSONL); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s (inspect with: tables -spans %s)\n", path, path)
		}
		if k.Feed != nil {
			for _, p := range k.Feed.FlightDumps() {
				fmt.Fprintf(w, "flight recorder dumped %s\n", p)
			}
		}
	}
	return nil
}

// Hold keeps a -serve listener answering with the final State until the
// process is interrupted, then closes it. Without -serve it returns at
// once.
func (k *Kit) Hold(w io.Writer) {
	if k.hs == nil {
		return
	}
	fmt.Fprintln(w, "run finished; serving the final snapshot until interrupted (Ctrl-C)")
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	k.hs.Close()
}

// WriteFile creates path, lets emit fill it, and reports the first
// error of create, emit and close.
func WriteFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
