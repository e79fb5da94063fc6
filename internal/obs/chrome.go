package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// WriteChromeTrace renders recorded events as a Chrome trace_event JSON
// file loadable in chrome://tracing or Perfetto. One trace microsecond
// equals one network cycle. Tracks:
//
//   - process "PEs": one thread per processing element, carrying each
//     shared reference's full lifecycle span (inject → reply) and the
//     PE's stall spans labeled by cause;
//   - process "network": one thread per switch stage, carrying the
//     per-stage residence span of every request (forward) and reply
//     (return), plus combine/decombine instants;
//   - process "MMs": one thread per memory module, carrying MNI service
//     spans. A combined request appears as a single MNI span whose
//     "serves" argument lists every origin request ID it answers.
//
// Events with Cycle < 0 (untimed cache events) are skipped.
func WriteChromeTrace(w io.Writer, events []Event) error {
	b := newTraceBuilder()
	for _, ev := range events {
		b.observe(ev)
	}
	return b.write(w)
}

const (
	pidPE  = 1
	pidNet = 2
	pidMM  = 3
)

// chromeEvent is one trace_event entry (the JSON array format).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData,omitempty"`
}

// hop is one stage arrival.
type hop struct {
	stage int
	cycle int64
}

// reqTrace accumulates one request ID's lifecycle.
type reqTrace struct {
	id           uint64
	pe           int
	label        string
	inject       int64
	hops         []hop
	replyHops    []hop
	combineCycle int64
	combineStage int
	mmArrive     int64
	deliver      int64
	value        int64
	delivered    bool
}

type mniSpan struct {
	mm           int
	begin, serve int64
	label        string
	hasBegin     bool
	hasServe     bool
}

type stallSpan struct {
	pe         int
	cause      StallCause
	begin, end int64
	open       bool
}

type traceBuilder struct {
	reqs      map[uint64]*reqTrace
	order     []uint64 // deterministic output order
	mni       map[uint64]*mniSpan
	mniOrder  []uint64
	into      map[uint64]uint64 // absorbed request ID -> surviving ID
	stalls    []stallSpan
	openStall map[int]int // pe -> index into stalls
	instants  []chromeEvent
	maxCycle  int64
	stages    map[int]bool
	mms       map[int]bool
	pes       map[int]bool
}

func newTraceBuilder() *traceBuilder {
	return &traceBuilder{
		reqs:      make(map[uint64]*reqTrace),
		mni:       make(map[uint64]*mniSpan),
		into:      make(map[uint64]uint64),
		openStall: make(map[int]int),
		stages:    make(map[int]bool),
		mms:       make(map[int]bool),
		pes:       make(map[int]bool),
	}
}

func (b *traceBuilder) req(id uint64) *reqTrace {
	r, ok := b.reqs[id]
	if !ok {
		r = &reqTrace{id: id, pe: -1, inject: -1, combineCycle: -1, mmArrive: -1, deliver: -1}
		b.reqs[id] = r
		b.order = append(b.order, id)
	}
	return r
}

func (b *traceBuilder) observe(ev Event) {
	if ev.Cycle < 0 {
		return
	}
	if ev.Cycle > b.maxCycle {
		b.maxCycle = ev.Cycle
	}
	pe, stage, mm := int(ev.PE), int(ev.Stage), int(ev.MM)
	switch ev.Kind {
	case KindInject:
		r := b.req(ev.ID)
		r.inject = ev.Cycle
		r.pe = pe
		r.label = fmt.Sprintf("%s %s", ev.Op, ev.Addr)
		b.pes[pe] = true
	case KindStageArrive:
		r := b.req(ev.ID)
		r.hops = append(r.hops, hop{stage, ev.Cycle})
		if r.label == "" {
			r.label = fmt.Sprintf("%s %s", ev.Op, ev.Addr)
		}
		b.stages[stage] = true
	case KindCombine:
		r := b.req(ev.ID)
		r.combineCycle = ev.Cycle
		r.combineStage = stage
		b.into[ev.ID] = ev.ID2
		b.stages[stage] = true
		b.instants = append(b.instants, chromeEvent{
			Name: "combine", Cat: "combine", Ph: "i", TS: ev.Cycle,
			PID: pidNet, TID: stage,
			Args: map[string]any{"absorbed": ev.ID, "into": ev.ID2, "addr": ev.Addr.String()},
		})
	case KindMMArrive:
		b.req(ev.ID).mmArrive = ev.Cycle
		b.mms[mm] = true
	case KindMNIBegin:
		s := b.mniGet(ev.ID)
		s.mm = mm
		s.begin = ev.Cycle
		s.hasBegin = true
		s.label = fmt.Sprintf("%s %s", ev.Op, ev.Addr)
		b.mms[mm] = true
	case KindMNIServe:
		s := b.mniGet(ev.ID)
		s.mm = mm
		s.serve = ev.Cycle
		s.hasServe = true
		if s.label == "" {
			s.label = fmt.Sprintf("%s %s", ev.Op, ev.Addr)
		}
		b.mms[mm] = true
	case KindDecombine:
		b.instants = append(b.instants, chromeEvent{
			Name: "decombine", Cat: "combine", Ph: "i", TS: ev.Cycle,
			PID: pidNet, TID: stage,
			Args: map[string]any{"combined": ev.ID, "recreated": ev.ID2},
		})
		b.stages[stage] = true
	case KindReplyHop:
		r := b.req(ev.ID)
		r.replyHops = append(r.replyHops, hop{stage, ev.Cycle})
		b.stages[stage] = true
	case KindReplyDeliver:
		r := b.req(ev.ID)
		r.deliver = ev.Cycle
		r.delivered = true
		r.value = ev.Value
		if r.pe < 0 {
			r.pe = pe
		}
		b.pes[pe] = true
	case KindStallBegin:
		b.pes[pe] = true
		if i, open := b.openStall[pe]; open {
			b.stalls[i].end = ev.Cycle
			b.stalls[i].open = false
		}
		b.openStall[pe] = len(b.stalls)
		b.stalls = append(b.stalls, stallSpan{pe: pe, cause: ev.Cause, begin: ev.Cycle, open: true})
	case KindStallEnd:
		if i, open := b.openStall[pe]; open {
			b.stalls[i].end = ev.Cycle
			b.stalls[i].open = false
			delete(b.openStall, pe)
		}
	}
}

func (b *traceBuilder) mniGet(id uint64) *mniSpan {
	s, ok := b.mni[id]
	if !ok {
		s = &mniSpan{}
		b.mni[id] = s
		b.mniOrder = append(b.mniOrder, id)
	}
	return s
}

// root follows combine links to the request that actually reached
// memory on this ID's behalf.
func (b *traceBuilder) root(id uint64) uint64 {
	for i := 0; i < 64; i++ { // cycle guard; chains are short in practice
		next, ok := b.into[id]
		if !ok {
			return id
		}
		id = next
	}
	return id
}

func sortedKeys(m map[int]bool) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

func dur(from, to int64) int64 {
	if to > from {
		return to - from
	}
	return 1
}

func (b *traceBuilder) write(w io.Writer) error {
	var out []chromeEvent

	// Track metadata.
	meta := func(pid int, name string) {
		out = append(out, chromeEvent{Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": name}})
	}
	meta(pidPE, "PEs")
	meta(pidNet, "network stages")
	meta(pidMM, "MMs")
	// Thread-name metadata in sorted order: the builder tracks members in
	// maps, and ranging those directly would make two identical runs emit
	// byte-different trace files.
	for _, pe := range sortedKeys(b.pes) {
		out = append(out, chromeEvent{Name: "thread_name", Ph: "M", PID: pidPE, TID: pe,
			Args: map[string]any{"name": fmt.Sprintf("PE %d", pe)}})
	}
	for _, s := range sortedKeys(b.stages) {
		out = append(out, chromeEvent{Name: "thread_name", Ph: "M", PID: pidNet, TID: s,
			Args: map[string]any{"name": fmt.Sprintf("stage %d", s)}})
	}
	for _, mm := range sortedKeys(b.mms) {
		out = append(out, chromeEvent{Name: "thread_name", Ph: "M", PID: pidMM, TID: mm,
			Args: map[string]any{"name": fmt.Sprintf("MM %d", mm)}})
	}

	// Which origin requests each surviving request answered.
	serves := make(map[uint64][]uint64)
	for _, id := range b.order {
		root := b.root(id)
		serves[root] = append(serves[root], id)
	}

	for _, id := range b.order {
		r := b.reqs[id]
		label := r.label
		if label == "" {
			label = fmt.Sprintf("req %d", id)
		}

		// Lifecycle span on the PE track.
		if r.inject >= 0 && r.pe >= 0 {
			end := r.inject + 1
			switch {
			case r.delivered:
				end = r.deliver
			case r.mmArrive >= 0:
				end = r.mmArrive
			case len(r.hops) > 0:
				end = r.hops[len(r.hops)-1].cycle
			}
			args := map[string]any{"id": id}
			if root := b.root(id); root != id {
				args["combined_into"] = root
			}
			if r.delivered {
				args["value"] = r.value
			}
			out = append(out, chromeEvent{
				Name: label, Cat: "request", Ph: "X",
				TS: r.inject, Dur: dur(r.inject, end),
				PID: pidPE, TID: r.pe, Args: args,
			})
		}

		// Per-stage residence spans, forward path.
		sort.Slice(r.hops, func(i, j int) bool { return r.hops[i].cycle < r.hops[j].cycle })
		for i, h := range r.hops {
			end := h.cycle + 1
			switch {
			case i+1 < len(r.hops):
				end = r.hops[i+1].cycle
			case r.combineCycle >= 0 && r.combineCycle >= h.cycle:
				end = r.combineCycle
			case r.mmArrive >= 0:
				end = r.mmArrive
			}
			out = append(out, chromeEvent{
				Name: label, Cat: "fwd", Ph: "X",
				TS: h.cycle, Dur: dur(h.cycle, end),
				PID: pidNet, TID: h.stage, Args: map[string]any{"id": id},
			})
		}

		// Per-stage residence spans, return path (stages descend).
		sort.Slice(r.replyHops, func(i, j int) bool { return r.replyHops[i].cycle < r.replyHops[j].cycle })
		for i, h := range r.replyHops {
			end := h.cycle + 1
			if i+1 < len(r.replyHops) {
				end = r.replyHops[i+1].cycle
			} else if r.delivered {
				end = r.deliver
			}
			out = append(out, chromeEvent{
				Name: label + " (reply)", Cat: "rev", Ph: "X",
				TS: h.cycle, Dur: dur(h.cycle, end),
				PID: pidNet, TID: h.stage, Args: map[string]any{"id": id},
			})
		}
	}

	// MNI service spans; a span produced by a combined request lists
	// every origin it answers.
	for _, id := range b.mniOrder {
		s := b.mni[id]
		if !s.hasBegin && !s.hasServe {
			continue
		}
		begin, end := s.begin, s.serve
		if !s.hasBegin {
			begin = end - 1
		}
		if !s.hasServe {
			end = begin + 1
		}
		args := map[string]any{"id": id}
		if list := serves[id]; len(list) > 0 {
			args["serves"] = list
		}
		out = append(out, chromeEvent{
			Name: s.label, Cat: "mni", Ph: "X",
			TS: begin, Dur: dur(begin, end),
			PID: pidMM, TID: s.mm, Args: args,
		})
	}

	// Stall spans on the PE tracks.
	for _, st := range b.stalls {
		end := st.end
		if st.open {
			end = b.maxCycle + 1
		}
		out = append(out, chromeEvent{
			Name: "stall: " + st.cause.String(), Cat: "stall", Ph: "X",
			TS: st.begin, Dur: dur(st.begin, end),
			PID: pidPE, TID: st.pe,
			Args: map[string]any{"cause": st.cause.String()},
		})
	}

	out = append(out, b.instants...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })

	return json.NewEncoder(w).Encode(chromeFile{
		TraceEvents: out,
		OtherData:   map[string]any{"time_unit": "1us = 1 network cycle"},
	})
}
