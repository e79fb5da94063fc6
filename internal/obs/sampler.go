package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ultracomputer/internal/sim"
)

// Snapshot is one periodic observation of the machine's queues and
// counters. The StageQueue* fields are ordered from the PE side (stage
// 0) toward the memory side; cumulative counters (Injected, Combines,
// MMServed) are since the start of the run, while the *Rate fields are
// per-cycle rates over the interval since the previous snapshot,
// computed by Sampler.Record.
type Snapshot struct {
	Cycle int64 `json:"cycle"`

	// StageQueueOcc is the mean ToMM-queue occupancy per stage, in
	// packets per queue; StageQueuePackets the per-stage totals; and
	// StageQueueMax the fullest single queue per stage. Under a hot spot
	// the tree of saturated queues is widest at the PE side (so the
	// totals peak there) while the fullest queues sit on the hot path —
	// StageQueueMax grows toward the memory side (§3.2's congestion
	// intuition).
	StageQueueOcc     []float64 `json:"stage_queue_occ"`
	StageQueuePackets []int64   `json:"stage_queue_packets"`
	StageQueueMax     []int64   `json:"stage_queue_max"`
	// StageReplyOcc is the mean ToPE-queue occupancy per stage.
	StageReplyOcc []float64 `json:"stage_reply_occ"`

	// MMBusyFrac is the fraction of memory modules mid-access;
	// MMPending the mean fully assembled requests waiting per module.
	MMBusyFrac float64 `json:"mm_busy_frac"`
	MMPending  float64 `json:"mm_pending"`

	// WaitBufRecords is the total number of combined-request records
	// parked in wait buffers across all switches and copies; WaitBufOcc
	// the mean records per wait buffer. Sustained growth means the
	// return path cannot decombine as fast as the forward path combines.
	WaitBufRecords int64   `json:"wait_buf_records"`
	WaitBufOcc     float64 `json:"wait_buf_occ"`

	Injected int64 `json:"injected"`
	Combines int64 `json:"combines"`
	MMServed int64 `json:"mm_served"`

	// MMServedPerModule is the cumulative served count per memory
	// module — the service-skew diagnostic: under uniform hashed traffic
	// the counts stay level, under a hot spot one module races ahead.
	MMServedPerModule []int64 `json:"mm_served_per_module,omitempty"`

	// PEInstructions/PEStallCycles are the cumulative per-PE
	// instructions-retired and idle-cycle counters (machine runs only;
	// the synthetic trace runner has no PEs).
	PEInstructions []int64 `json:"pe_instructions,omitempty"`
	PEStallCycles  []int64 `json:"pe_stall_cycles,omitempty"`

	// RTCount/RTSum are the cumulative round-trip sample count and sum
	// (network cycles) measured at reply delivery; RTP50/RTP99 are
	// quantiles of the cumulative round-trip distribution.
	RTCount int64   `json:"rt_count"`
	RTSum   float64 `json:"rt_sum"`
	RTP50   float64 `json:"rt_p50"`
	RTP99   float64 `json:"rt_p99"`

	InjectRate  float64 `json:"inject_rate"`
	CombineRate float64 `json:"combine_rate"`
	ServeRate   float64 `json:"serve_rate"`
	// RTWindowMean is the mean round-trip latency of replies delivered
	// during the interval since the previous snapshot (computed by
	// Sampler.Record like the *Rate fields); zero when no reply
	// completed in the window.
	RTWindowMean float64 `json:"rt_window_mean"`
}

// Sampler accumulates Snapshots every Every cycles into a time series
// and feeds per-stage occupancy histograms for percentile summaries.
// Drivers call Due each cycle and Record when it reports true.
//
// The series grows by one Snapshot per sample for the life of the run;
// a run nobody will export it from sets LastOnly and holds O(1).
type Sampler struct {
	// Every is the sampling interval in network cycles. Non-positive
	// intervals disable sampling: Due never reports true, so a
	// zero-valued Sampler is inert rather than a division-by-zero trap.
	Every int64

	// OnRecord, when non-nil, receives every snapshot immediately after
	// Record fills its rate fields — the copy-on-sample hand-off the
	// live telemetry server (internal/obs/live) builds on. The callback
	// runs synchronously on the simulation goroutine; recorded
	// snapshots are immutable from this point on, so the callback may
	// publish the value to other goroutines but must not mutate it.
	OnRecord func(Snapshot)

	// LastOnly drops the time series: Snapshots and WriteJSONL then have
	// nothing to return, while Last, OnRecord, the rate fields and the
	// occupancy histograms work as ever. Set it before the run, when the
	// series has no reader (live.Flags.New does, unless -metrics was
	// asked).
	LastOnly bool

	snaps  []Snapshot
	last   Snapshot
	n      int              // snapshots recorded
	occ    []*sim.Histogram // per-stage total queued packets
	maxOcc []sim.Mean       // per-stage fullest single queue, averaged over snapshots
}

// NewSampler returns a sampler with the given interval (every < 1
// selects 64).
func NewSampler(every int64) *Sampler {
	if every < 1 {
		every = 64
	}
	return &Sampler{Every: every}
}

// Due reports whether a snapshot should be recorded at cycle. It is
// false for every cycle when Every is non-positive (a Sampler built by
// hand rather than NewSampler must not divide by zero), and false at
// cycle 0: the machine has no history yet, so the first snapshot lands
// at cycle Every.
func (s *Sampler) Due(cycle int64) bool {
	return s.Every > 0 && cycle > 0 && cycle%s.Every == 0
}

// Record appends one snapshot, filling its rate fields from the
// previous one and updating the percentile histograms.
func (s *Sampler) Record(sn Snapshot) {
	if dt := sn.Cycle - s.last.Cycle; s.n > 0 && dt > 0 {
		sn.InjectRate = float64(sn.Injected-s.last.Injected) / float64(dt)
		sn.CombineRate = float64(sn.Combines-s.last.Combines) / float64(dt)
		sn.ServeRate = float64(sn.MMServed-s.last.MMServed) / float64(dt)
		if dc := sn.RTCount - s.last.RTCount; dc > 0 {
			sn.RTWindowMean = (sn.RTSum - s.last.RTSum) / float64(dc)
		}
	}
	for len(s.occ) < len(sn.StageQueuePackets) {
		s.occ = append(s.occ, sim.NewHistogram(1024))
	}
	for st, pk := range sn.StageQueuePackets {
		s.occ[st].Observe(pk)
	}
	for len(s.maxOcc) < len(sn.StageQueueMax) {
		s.maxOcc = append(s.maxOcc, sim.Mean{})
	}
	for st, mx := range sn.StageQueueMax {
		s.maxOcc[st].Observe(float64(mx))
	}
	if !s.LastOnly {
		s.snaps = append(s.snaps, sn)
	}
	s.last = sn
	s.n++
	if s.OnRecord != nil {
		s.OnRecord(sn)
	}
}

// Snapshots returns the recorded time series (nil under LastOnly).
func (s *Sampler) Snapshots() []Snapshot { return s.snaps }

// Last returns the most recently recorded snapshot; ok is false before
// the first one.
func (s *Sampler) Last() (sn Snapshot, ok bool) { return s.last, s.n > 0 }

// StageOccupancy returns the histogram of total queued packets at the
// given stage across all snapshots, or nil if never sampled.
func (s *Sampler) StageOccupancy(stage int) *sim.Histogram {
	if stage < 0 || stage >= len(s.occ) {
		return nil
	}
	return s.occ[stage]
}

// WriteJSONL writes the time series as one JSON object per line.
func (s *Sampler) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sn := range s.snaps {
		if err := enc.Encode(sn); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders per-stage occupancy percentiles (total queued packets
// per stage over the sampled window) — the compact view of where the
// network backs up.
func (s *Sampler) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "queue occupancy by stage over %d samples (total packets: mean p50 p95 p99; fullest queue mean/peak)\n", s.n)
	for st, h := range s.occ {
		var mxMean, mxPeak float64
		if st < len(s.maxOcc) {
			mxMean = s.maxOcc[st].Value()
			mxPeak = s.maxOcc[st].Max()
		}
		fmt.Fprintf(&b, "  stage %2d  %8.2f %5d %5d %5d  fullest %6.2f /%3.0f\n",
			st, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), mxMean, mxPeak)
	}
	return b.String()
}
