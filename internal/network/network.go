package network

import (
	"fmt"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/sim"
)

// Stats aggregates network activity across all copies.
type Stats struct {
	// Injected counts requests accepted from PEs.
	Injected sim.Counter
	// DeliveredToMM counts requests handed to memory modules
	// (post-combining, so DeliveredToMM <= Injected).
	DeliveredToMM sim.Counter
	// Combines counts pairwise combinations performed in switches.
	Combines sim.Counter
	// Decombines counts wait-buffer matches on the return path.
	Decombines sim.Counter
	// RepliesDelivered counts replies handed to PEs.
	RepliesDelivered sim.Counter
	// RoundTrip observes inject-to-reply latency in network cycles.
	RoundTrip sim.Mean
	// RoundTripHist is the distribution behind RoundTrip, for tail
	// quantiles (p50/p99). New initializes it; a Stats built by hand may
	// leave it nil, in which case only the mean is tracked.
	RoundTripHist *sim.Histogram

	// perStageCombines counts combinations by stage (index 0 is the PE
	// side): on a hot spot the combining tree forms across all stages.
	perStageCombines []int64
}

// observeRT records one inject-to-reply latency.
func (s *Stats) observeRT(lat int64) {
	s.RoundTrip.Observe(float64(lat))
	if s.RoundTripHist != nil {
		s.RoundTripHist.Observe(lat)
	}
}

// addAtStage adds c to the combine counter of a stage, growing the slice
// to it.
func (s *Stats) addAtStage(stage int, c int64) {
	for len(s.perStageCombines) <= stage {
		s.perStageCombines = append(s.perStageCombines, 0)
	}
	s.perStageCombines[stage] += c
}

// CombinesPerStage reports combinations by switch stage (stage 0 is
// nearest the PEs).
func (s *Stats) CombinesPerStage() []int64 {
	return append([]int64(nil), s.perStageCombines...)
}

// Network is the Ultracomputer interconnect: Copies identical Omega
// networks over which each PE spreads its requests round-robin (§4.1).
// The caller drives it cycle by cycle, injecting requests on the PE side,
// serving arrivals on the MM side, and collecting replies.
//
// Request IDs must be unique among in-flight requests; the PNI layer in
// internal/pe guarantees this, as do the trace generators.
type Network struct {
	cfg  Config
	topo *topology // shape and wiring tables; topo.n is Ports(), computed once
	next []int     // per-PE round-robin copy index

	// Link state: one record per link and direction, queue and server
	// side by side, all copies laid end to end within a stage and stored
	// by position (see fwdAt, revAt), so that act.fwd[i] / act.rev[i] is
	// the activity flag of fwd[i] / rev[i] and unit u's k links in a phase
	// are records [u·k, u·k+k) of the phase's stage.
	fwd []fwdLink // [(s+1)·lines+p]: out of stage s; s == -1: the PNI links
	rev []revLink // [s·lines+p]: out of stage s toward the PEs; s == stages: the MNI links
	// Per-port buffers at the two ends, copy ci's at [ci·N, ci·N+N).
	mmIn   []reqQueue    // [mm] fully assembled requests awaiting the MM
	peRecv [][]msg.Reply // [pe] fully assembled replies for the PE
	// revDefer holds, per switch ([u·stages+s]), the second reply
	// synthesized by a decombination when its ToPE queue lacked space that
	// cycle (a one-entry register in the hardware). While occupied, the
	// switch refuses further incoming replies so the register cannot be
	// overrun; it drains as the ToPE queues empty toward the PEs.
	revDefer []deferredReply

	// outstanding counts, per PE, the replies it is owed. A message is its
	// own return route (msg.Request.Copy, Issued), so the network routes by
	// no table; this is its fault detector (ID-exact matching is the PNI's
	// job, internal/pe). Written by inject and collect; the MM side only
	// reads it.
	outstanding []int32
	dead        []bool // fail-stopped copies (no new requests)
	// act holds the activity flags of every copy's links, MM arrival
	// queues and PE receive buffers (see activity).
	act   activity
	stats Stats
	// fan delivers every event of the network, and of the PEs it carries
	// traffic for, to the attached consumers (SetProbe, SetTracer,
	// SetProfiler).
	fan obs.Fanout

	// collectBuf is the per-PE reply scratch reused by Collect every
	// cycle. The returned slice is only valid until that PE's next Collect.
	collectBuf [][]msg.Reply
}

// SetProbe subscribes an event probe (the recorder) to the network's
// events; nil detaches it. Like SetTracer and SetProfiler, call it
// before the first Step. With no consumer attached an emit site costs
// one mask test.
func (n *Network) SetProbe(p obs.Probe) { n.fan.Subscribe(obs.SubRecord, p) }

// SetTracer subscribes the request tracer (a reqtrace.Tracer); nil
// detaches it. It receives only events of requests carrying a trace
// context.
func (n *Network) SetTracer(p obs.Probe) { n.fan.Subscribe(obs.SubTrace, p) }

// SetProfiler subscribes the guest profiler (a prof.Profiler); nil
// detaches it. Of the network's own events it receives the combines.
func (n *Network) SetProfiler(p obs.Probe) { n.fan.Subscribe(obs.SubProf, p) }

// New builds a network from cfg. It panics on an invalid configuration
// (construction happens at setup time; see Config.Validate).
func New(cfg Config) *Network {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := newTopology(cfg.K, cfg.Stages, cfg.Copies)
	n := &Network{
		cfg:         cfg,
		topo:        t,
		next:        make([]int, t.n),
		outstanding: make([]int32, t.n),
		fwd:         make([]fwdLink, (t.stages+1)*t.lines),
		rev:         make([]revLink, (t.stages+1)*t.lines),
		mmIn:        make([]reqQueue, t.lines),
		peRecv:      make([][]msg.Reply, t.lines),
		revDefer:    make([]deferredReply, t.lines/t.k*t.stages),
		act:         newActivity(t),
		dead:        make([]bool, cfg.Copies),
		collectBuf:  make([][]msg.Reply, t.n),
	}
	n.stats.RoundTripHist = sim.NewHistogram(2048)
	for i := range n.fwd {
		n.fwd[i].q.cap = cfg.QueueCapacity
		n.rev[i].q.cap = cfg.QueueCapacity
		n.rev[i].wb.cap = cfg.WaitBufferCapacity
	}
	for i := 0; i < t.lines; i++ {
		n.fwd[i].q.cap = cfg.PNIQueueCapacity // the PNI links come first
		n.mmIn[i].cap = cfg.QueueCapacity
	}
	return n
}

// carve gives each link queue and MM arrival queue still without storage
// its first three slots, side by side in one slab per message type, so
// that only a queue holding more than three messages grows an array of its
// own (DESIGN.md, "Why a queue starts in a slab"). Stepper.Step calls it.
func (n *Network) carve() {
	reqs, reps := make([]reqEntry, 3*(len(n.fwd)+len(n.mmIn))), make([]msg.Reply, 3*len(n.rev))
	for i := range n.fwd {
		if q := &n.fwd[i].q; q.entries == nil {
			q.entries = reqs[3*i : 3*i : 3*i+3]
		}
		if q := &n.rev[i].q; q.entries == nil {
			q.entries = reps[3*i : 3*i : 3*i+3]
		}
		if j := len(n.fwd) + i; i < len(n.mmIn) && n.mmIn[i].entries == nil {
			n.mmIn[i].entries = reqs[3*j : 3*j : 3*j+3]
		}
	}
}

// FailCopy fail-stops network copy i: no new requests enter it, but
// traffic already inside drains normally (replies still return). This is
// the reliability benefit §4.1 attributes to using several copies of the
// network; with every copy failed, Inject refuses all traffic.
func (n *Network) FailCopy(i int) {
	if i < 0 || i >= len(n.dead) {
		panic(fmt.Sprintf("network: FailCopy(%d) of %d copies", i, len(n.dead)))
	}
	n.dead[i] = true
}

// AliveCopies reports how many copies still accept traffic.
func (n *Network) AliveCopies() int {
	alive := 0
	for _, d := range n.dead {
		if !d {
			alive++
		}
	}
	return alive
}

// Config returns the configuration the network was built with (with
// defaults applied).
func (n *Network) Config() Config { return n.cfg }

// Ports reports N, the number of PE and MM ports.
func (n *Network) Ports() int { return n.topo.n }

// Stats exposes the accumulated statistics.
func (n *Network) Stats() *Stats { return &n.stats }

// inject is Stepper.Inject. It stamps the accepted request with its way
// back: the copy that carries it and the cycle it entered. r.PE must equal
// pe: the reply is routed by the request's PE field.
func (n *Network) inject(pe int, r msg.Request, cycle int64) bool {
	ports := n.topo.n
	if pe < 0 || pe >= ports {
		panic(fmt.Sprintf("network: Inject at PE %d of %d", pe, ports))
	}
	if r.PE != pe {
		panic(fmt.Sprintf("network: Inject at PE %d of request from PE %d", pe, r.PE))
	}
	for i := 0; i < len(n.dead); i++ {
		ci := (n.next[pe] + i) % len(n.dead)
		if n.dead[ci] {
			continue
		}
		at := n.fwdAt(-1, ci*ports+pe)
		if n.fwd[at].q.spaceFor(r.Packets()) {
			r.Copy, r.Issued = uint8(ci), cycle
			n.pushFwd(at, &r)
			n.next[pe] = (ci + 1) % len(n.dead)
			n.outstanding[pe]++
			n.stats.Injected.Inc()
			if to := n.fan.Subs().For(obs.KindInject, r.TC.Traced()); to != 0 {
				n.fan.Emit(obs.Event{
					To: to, Cycle: cycle, Kind: obs.KindInject, PE: int32(pe), Stage: -1,
					MM: int32(r.Addr.MM), Copy: int16(ci), ID: r.ID, Op: r.Op, Addr: r.Addr,
					Value: r.Operand,
				})
			}
			return true
		}
	}
	return false
}

// mmDequeue is Stepper.MMDequeue, searching the copies in order. It
// clears a copy's arrival flag when it takes that copy's last request.
func (n *Network) mmDequeue(mm int) (r msg.Request, ok bool) {
	for i := mm; i < len(n.mmIn); i += n.topo.n {
		if n.act.mm[i] == 0 {
			continue
		}
		q := &n.mmIn[i]
		ok = q.pop(&r)
		if q.empty() {
			n.act.mm[i] = 0
		}
		if ok {
			n.stats.DeliveredToMM.Inc()
			return r, true
		}
	}
	return r, false
}

// MMWaiting reports whether a request may be waiting at memory module
// mm; false guarantees Stepper.MMDequeue(mm) would find nothing, so a driver can
// skip an idle module without touching its queues.
func (n *Network) MMWaiting(mm int) bool { return n.anyCopy(n.act.mm, mm) }

// anyCopy reports whether any copy has its flag for port set in a
// per-port flag array.
func (n *Network) anyCopy(flags []uint8, port int) bool {
	for i := port; i < len(flags); i += n.topo.n {
		if flags[i] != 0 {
			return true
		}
	}
	return false
}

// MMReply enqueues a reply at memory module mm's network interface. The
// reply returns through the copy that carried its request, which it names
// itself (build it with msg.Request.Reply). It reports false when that
// copy's MNI queue is full (the MM must retry).
func (n *Network) MMReply(mm int, rep msg.Reply) bool {
	ports := n.topo.n
	if mm < 0 || mm >= ports {
		panic(fmt.Sprintf("network: MMReply at MM %d of %d", mm, ports))
	}
	if rep.PE < 0 || rep.PE >= ports {
		panic(fmt.Sprintf("network: MMReply at MM %d of reply to PE %d of %d", mm, rep.PE, ports))
	}
	if int(rep.Copy) >= len(n.dead) {
		panic(fmt.Sprintf("network: MMReply at MM %d of reply through copy %d of %d", mm, rep.Copy, len(n.dead)))
	}
	if n.outstanding[rep.PE] == 0 {
		panic(fmt.Sprintf("network: MMReply at MM %d of reply to PE %d, which has nothing outstanding", mm, rep.PE))
	}
	at := n.revAt(n.topo.stages, int(rep.Copy)*ports+mm)
	if !n.rev[at].q.spaceFor(rep.Packets()) {
		return false
	}
	n.pushRev(at, &rep)
	return true
}

// collect is Stepper.Collect. Round-trip latencies — the cycle less the
// injection cycle the reply carries — are observed into the network's
// stats in PE order, then arrival order: round-trip means use Welford's
// sequence-dependent update, so that order is part of the output. A reply
// the PE is not owed is a fault.
func (n *Network) collect(pe int, cycle int64) []msg.Reply {
	if !n.anyCopy(n.act.pe, pe) {
		return nil
	}
	out := n.collectBuf[pe][:0]
	for i := pe; i < len(n.peRecv); i += n.topo.n {
		if n.act.pe[i] != 0 {
			out = append(out, n.peRecv[i]...)
			n.peRecv[i] = n.peRecv[i][:0]
			n.act.pe[i] = 0
		}
	}
	n.collectBuf[pe] = out[:0]
	for i := range out {
		rep := &out[i]
		if n.outstanding[pe] == 0 {
			panic(fmt.Sprintf("network: Collect at PE %d of reply %d with nothing outstanding", pe, rep.ID))
		}
		n.outstanding[pe]--
		n.stats.observeRT(cycle - rep.Issued)
		n.stats.RepliesDelivered.Inc()
		if to := n.fan.Subs().For(obs.KindReplyDeliver, rep.TC.Traced()); to != 0 {
			// For the tracer this completes the span: it closes it and
			// files it in the flight recorder.
			n.fan.Emit(obs.Event{
				To: to, Cycle: cycle, Kind: obs.KindReplyDeliver, PE: int32(pe), Stage: -1,
				MM: -1, Copy: -1, ID: rep.ID, Op: rep.Op, Addr: rep.Addr,
				Value: rep.Value,
			})
		}
	}
	return out
}

// SampleQueues records the current occupancy (in packets) of every
// forward switch queue into h — call periodically to build the
// queue-length distribution behind the §4.1 delay analysis.
func (n *Network) SampleQueues(h *sim.Histogram) {
	for i := n.topo.lines; i < len(n.fwd); i++ {
		h.Observe(int64(n.fwd[i].q.occupancy()))
	}
}

// Snapshot captures the network side of one obs.Snapshot at cycle:
// per-stage ToMM and ToPE queue occupancy (summed over copies, stage 0
// nearest the PEs) and the cumulative traffic counters. Memory-side
// fields are filled by the bank (memory.Bank.Observe).
func (n *Network) Snapshot(cycle int64) obs.Snapshot {
	stages, lines := n.topo.stages, n.topo.lines
	sn := obs.Snapshot{
		Cycle:             cycle,
		StageQueuePackets: make([]int64, stages),
		StageQueueOcc:     make([]float64, stages),
		StageQueueMax:     make([]int64, stages),
		StageReplyOcc:     make([]float64, stages),
	}
	replyPackets := make([]int64, stages)
	for s := 0; s < stages; s++ {
		fwd, rev := n.fwd[(s+1)*lines:(s+2)*lines], n.rev[s*lines:(s+1)*lines]
		for i := range fwd {
			occ := int64(fwd[i].q.occupancy())
			sn.StageQueuePackets[s] += occ
			if occ > sn.StageQueueMax[s] {
				sn.StageQueueMax[s] = occ
			}
			replyPackets[s] += int64(rev[i].q.occupancy())
		}
	}
	// Every link but stage 0's into the PEs carries a wait buffer.
	for i := lines; i < len(n.rev); i++ {
		sn.WaitBufRecords += int64(n.rev[i].wb.len())
	}
	var mmWaiting int
	for i := range n.mmIn {
		mmWaiting += n.mmIn[i].len()
	}
	queuesPerStage := float64(lines)
	sn.WaitBufOcc = float64(sn.WaitBufRecords) / float64(lines*stages)
	sn.MMPending = float64(mmWaiting) / float64(n.topo.n)
	for s := 0; s < stages; s++ {
		sn.StageQueueOcc[s] = float64(sn.StageQueuePackets[s]) / queuesPerStage
		sn.StageReplyOcc[s] = float64(replyPackets[s]) / queuesPerStage
	}
	sn.Injected = n.stats.Injected.Value()
	sn.Combines = n.stats.Combines.Value()
	sn.RTCount = n.stats.RoundTrip.N()
	sn.RTSum = n.stats.RoundTrip.Value() * float64(n.stats.RoundTrip.N())
	if h := n.stats.RoundTripHist; h != nil && h.N() > 0 {
		sn.RTP50 = float64(h.Quantile(0.50))
		sn.RTP99 = float64(h.Quantile(0.99))
	}
	return sn
}

// InFlight counts messages resident anywhere in the network, including
// replies delivered to PE buffers but not yet collected, each once: a
// link's server counts its message until the header is delivered, then
// the message counts where it went. Zero means the network has fully
// drained, every tail included (a tail ends before its message arrives).
func (n *Network) InFlight() int {
	total := 0
	for i := range n.fwd {
		f, r := &n.fwd[i], &n.rev[i]
		// Each wait record stands for one absorbed request whose reply
		// is still owed (its partner is counted on the path).
		total += f.q.len() + r.q.len() + r.wb.len()
		if f.active && !f.delivered {
			total++
		}
		if r.active && !r.delivered {
			total++
		}
	}
	for i := range n.mmIn {
		total += n.mmIn[i].len() + len(n.peRecv[i])
	}
	for i := range n.revDefer {
		if n.revDefer[i].valid {
			total++
		}
	}
	return total
}
