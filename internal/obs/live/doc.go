// Package live serves the simulator's telemetry over HTTP while a run
// is in progress — the third observability layer after event probes
// (obs.Probe/Recorder) and offline metrics series (obs.Sampler), and
// the first concurrent consumer of simulation state in the codebase.
//
// # Copy-on-sample concurrency contract
//
// The simulation loop stays single-threaded and deterministic; the HTTP
// server never touches live simulator state. The hand-off works like
// production Go metrics pipelines:
//
//  1. Every Sampler.Every cycles the simulation goroutine records an
//     obs.Snapshot — a freshly allocated value that aliases no mutable
//     simulator state — and Sampler.OnRecord hands it to Feed.Publish,
//     still on the simulation goroutine.
//  2. Feed.Publish assembles an immutable *State (snapshot, analytic
//     model conformance, the window's newest probe events copied out of
//     the feed's own tail, an optional driver-supplied report) and
//     stores it into the Server with a single atomic pointer swap.
//  3. HTTP handler goroutines load the pointer and read the frozen
//     State. Nothing they do can perturb the simulation, so runs with
//     and without -serve produce byte-identical results, and the
//     cmd/ultravet detstate analyzer stays green: the only thing a
//     tick path does is an atomic store of an already-copied value.
//
// # Endpoints
//
//	/metrics        Prometheus text exposition: cycle count, traffic
//	                counters and rates, per-stage ToMM/ToPE queue
//	                depth, combining rate, wait-buffer occupancy,
//	                per-MM service counts and skew, per-PE
//	                instructions-retired and stall-cycle counters,
//	                round-trip p50/p99, and the model-conformance
//	                gauges (measured vs predicted latency, drift
//	                ratio, alert state).
//	/snapshot.json  The full current State as one JSON document.
//	/events         The newest probe events of the current State as
//	                JSONL (at most DefaultTailEvents = 256 per
//	                State); ?follow=1 streams each newly published
//	                State's events until the run finishes. It is a
//	                sampled peek, not a log: a State is published
//	                every sample period and a follower polls every
//	                25 ms, so windows of more than 256 events are
//	                cut to their newest 256 and a fast run publishes
//	                States no follower sees. -trace is the record.
//	/trace/flight   The request tracer's flight recorder as JSONL: the
//	                ring of recent complete spans plus slow outliers
//	                (404 unless a tracer is attached via
//	                Server.SetFlight).
//	/profile        The guest profiler's current profile as a gzipped
//	                pprof protobuf — `go tool pprof http://addr/profile`
//	                renders guest flamegraphs mid-run (404 unless a
//	                profiler is attached via Server.SetProfile).
//	/healthz        Liveness plus publish progress.
//	/debug/pprof/   Standard net/http/pprof handlers.
//
// # Observation kit
//
// Kit is the one harness every driver observes a run through —
// cmd/ultrasim, cmd/netperf, examples/hotspot and internal/serve
// sessions. Flags is the shared flag set (Register); Flags.New builds
// the consumers the requested outputs imply, by one rule:
//
//	output                      recorder  sampler  tracer  monitor+feed
//	-trace                         x
//	-metrics                                 x (keeps the series)
//	-reqtrace r                                       x (rate r)
//	-spans                                            x (rate 1 unless -reqtrace)
//	-flight-dir                              x        x (same)       x
//	-serve, or a session's server            x                       x (takes the events)
//
// Each consumer is sized by its reader. A served run's events go to the
// feed, which keeps the newest DefaultTailEvents of them in a fixed tail
// (256 × 72 B ≈ 18 KB) — all a State ever carries — and its sampler keeps
// the last snapshot (and its per-stage occupancy histograms), not the
// series: what a served run without -trace or -metrics holds is fixed
// when it is built, however long it runs and however often it samples.
// The recorder ring (the caller's
// capacity, 75 MB at obs.DefaultRecorderCapacity) is built for -trace
// alone, and a run that is traced and served has the feed pass every
// event on to it; the sampler's series is kept for -metrics alone.
//
// The kit's consumers are one prof.Observers value (embedded in Kit):
// a machine takes it whole (machine.Observe(kit.Observers)), a driver
// without one copies it into trace.Workload, which embeds the same type.
// Start arms the conformance monitor, wires /trace/flight and /profile
// and opens the -serve listener; Finish marks the feed done, writes every requested
// file and prints the summaries; Hold keeps the listener up until the
// process is interrupted. The driver supplies only what differs: the
// -trace ring's capacity, the sampling period, a session's mounted
// Server, and a guest profiler where one can be built.
//
// # Flight recorder
//
// When a Feed carries a reqtrace.Tracer and a FlightDir, every
// conformance alert additionally dumps the tracer's current flight
// ring to FlightDir/flight-<cycle>.jsonl (at most DefaultMaxFlightDumps
// per run), so the per-request traces that explain the alert are on
// disk the moment it fires; State.FlightDumps lists the files written.
//
// # Model conformance
//
// The Monitor evaluates the paper's §4.1 closed form
//
//	T = (lg n / lg k)·(1 + m²ρ(1−1/k) / 2(1−mρ)) + m − 1
//
// each sampling window against the load ρ actually injected in that
// window, and compares the predicted round-trip latency against the
// measured one. Uniform traffic tracks the model within a few percent;
// hot-spot onset (the non-uniform traffic of §3.1.2 and the
// tree-saturation literature) makes measured latency diverge while ρ
// stays modest, which is exactly what the drift ratio alarms on.
package live
