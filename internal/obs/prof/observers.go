package prof

import (
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/reqtrace"
)

// Observers names a run's consumers, each nil when the run does without
// it. It is declared once per run — live.Kit builds one from the
// observation flags — and handed whole to the driver: machine.Observe
// takes it, trace.Workload embeds it.
type Observers struct {
	// Probe receives every recorder-audience event of the run: inject,
	// per-stage hops, combines, MNI service, replies, PE stalls, cache
	// hits, misses and write-backs.
	Probe obs.Probe
	// Sampler records a metrics snapshot every Sampler.Every network
	// cycles.
	Sampler *obs.Sampler
	// Tracer samples requests for causal per-hop tracing: sampled
	// requests carry a trace context and the run records their complete
	// span trees.
	Tracer *reqtrace.Tracer
	// Profiler attributes PE cycles to guest pcs and keeps the per-word
	// contention heatmap. A driver without instruction-executing PEs
	// (trace.Run) feeds the heatmap side only.
	Profiler *Profiler
}

// Probes returns the recorder, the tracer and the profiler as the probes
// a component's fan-out subscribes, an absent one as a nil interface.
// It is the one place a nil *Tracer or *Profiler meets an interface type.
func (o Observers) Probes() (rec, tr, pr obs.Probe) {
	if o.Tracer != nil {
		tr = o.Tracer
	}
	if o.Profiler != nil {
		pr = o.Profiler
	}
	return o.Probe, tr, pr
}
