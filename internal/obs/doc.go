// Package obs is the machine's observability layer: cycle-level request
// tracing, periodic metrics sampling, and exporters for both.
//
// The paper's evaluation (§4) rests on seeing inside the network —
// NETSIM/WASHCLOTH measured per-stage queue behavior and central-memory
// access-time distributions. This package makes the same visibility a
// first-class part of the simulator instead of ad-hoc printf debugging:
//
//   - Probe is a one-method sink for typed Events, and there is one
//     instrumentation channel: each instrumented moment has one guard and
//     builds one Event, addressed (Event.To, a Subs mask) to whichever of
//     the recorder, the request tracer and the guest profiler is attached
//     and has a use for it. A component's Fanout delivers it. With nobody
//     listening a site costs one mask test and zero allocations.
//   - Recorder is a fixed-capacity ring buffer Probe: when full it
//     overwrites the oldest events, so tracing a long run keeps the tail.
//     It is the -trace consumer (a served run's events go to live.Feed).
//   - Sampler accumulates periodic Snapshots of per-stage queue
//     occupancy, combine rate and memory-module utilization into a time
//     series (or, under LastOnly, keeps the last one), with percentile
//     summaries built on sim.Histogram.
//   - WriteChromeTrace renders recorded events as a Chrome trace_event
//     JSON file (one track per PE, per switch stage, per MM) loadable in
//     chrome://tracing or Perfetto; Sampler.WriteJSONL emits the metrics
//     time series as one JSON object per line.
//
// # Event schema
//
// Every Event carries the network cycle it happened on (PE-side events
// are scaled from PE cycles to network cycles by the machine), the event
// Kind, its audience To, and the subset of the remaining fields that Kind
// defines. Aux is for the tracer and the profiler; the recorder's
// exports never print it, so Value stays what /events and the Chrome
// trace show.
//
//	KindInject        request accepted into the network.
//	                  PE, ID, Op, Addr, Value (operand), Copy.
//	KindStageArrive   request enqueued into a stage's ToMM queue after a
//	                  switch hop. Stage, ID, PE, Op, Addr, Aux (queue
//	                  occupancy in packets).
//	KindStageDepart   request popped from a ToMM queue (Stage -1: the PNI
//	                  queue) into its link server. Stage, ID, PE, Op, Addr.
//	KindCombine       request absorbed into a queued partner for the
//	                  same word (§3.3). Stage, ID (absorbed request),
//	                  ID2 (surviving request), Addr, Aux (the
//	                  survivor's PE).
//	KindMMArrive      fully assembled request handed to the memory-side
//	                  queue by the last stage. MM, ID.
//	KindMNIBegin      memory module begins serving a request. MM, ID,
//	                  Op, Addr.
//	KindMNIServe      memory module completes a request; the reply is
//	                  created. MM, ID, Op, Addr, Value (returned value).
//	KindDecombine     wait-buffer match on the return path: the combined
//	                  reply forks back into two (§3.3, Figure 3). Stage,
//	                  ID (combined reply), ID2 (recreated absorbed
//	                  request).
//	KindReplyHop      reply enqueued into a stage's ToPE queue. Stage,
//	                  ID, PE. From a memory module (MM set, Stage -1):
//	                  reply enqueued into the MNI output queue.
//	KindReplyDepart   reply popped from a ToPE queue (Stage -1 and MM set:
//	                  the MNI queue) into its link server. Stage, ID, PE.
//	KindReplyDeliver  reply handed to the requesting PE. PE, ID, Value.
//	KindStallBegin    the PE entered a run of idle cycles. PE, Cause.
//	KindStallEnd      the PE resumed executing. PE, Cause.
//	KindCacheHit      private-cache hit. PE, Value (linear address).
//	KindCacheMiss     private-cache miss. PE, Value (linear address).
//	KindCacheWriteBack an evicted/flushed dirty word left the cache.
//	                  PE, Value (linear address).
//	KindProfCycle     one PE cycle elapsed (post-halt cycles included).
//	                  PE, Aux (guest pc), Value (the obs.ProfState the
//	                  cycle was spent in).
//	KindProfIssue     a shared request left the PE. PE, Aux (guest pc),
//	                  Op, Value (linear address), Addr (its module and
//	                  word).
//	KindProfDeliver   its reply reached the PE. PE, Aux (pc of the issuing
//	                  instruction), Op, Value (linear address), Addr (its
//	                  module and word), ID (the returned value's bits),
//	                  ID2 (issue-to-reply time in PE cycles).
//
// Cache events come from the timing-free functional cache model and
// carry Cycle = -1; the Recorder preserves their order relative to the
// surrounding timed events. A PE and the caches its core owns emit
// through the sink network.Stepper hands out for the PEs — the network's
// fan-out — so every PE-side event carries its audience in To like any
// other.
//
// The audience of each kind (Subs.For), R the recorder, T the request
// tracer — for events of sampled requests only — and P the profiler:
//
//	R T P   Combine, MNIServe
//	R T     Inject, StageArrive, MMArrive, MNIBegin, Decombine,
//	        ReplyHop (in a switch), ReplyDeliver
//	  T     StageDepart, ReplyDepart, ReplyHop (from a memory module)
//	R       StallBegin, StallEnd, CacheHit, CacheMiss, CacheWriteBack
//	    P   ProfCycle, ProfIssue, ProfDeliver
//
// Stall causes attribute every idle PE cycle to the hardware reason the
// paper's design cares about:
//
//	CauseMemory    a consumed register is still locked awaiting a reply
//	               (the §3.5 scoreboard), or a fence is draining.
//	CauseNetFull   the network refused an injection — queue-full
//	               backpressure at the PNI.
//	CausePipeline  the PNI's pipelining restrictions refused an issue
//	               (outstanding-request limit, or an in-flight request
//	               to the same location, §3.4).
package obs
