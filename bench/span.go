package main

import (
	"encoding/json"
	"io"
	"time"
)

// A span is one timed interval at a layer boundary, recorded by the
// benchmark around its call into that layer. Parent is the index of the
// enclosing span in the same recorder (-1 for a root); Op is the timed
// op the span belongs to, so the spans of one op share an identifier.
type span struct {
	Name   string
	Start  int64 // ns since the recorder was made
	End    int64
	Parent int32
	Op     int32
}

// spanRec keeps one goroutine's spans in memory. Totals are folded by
// name when an op ends (fold) so a traced run of short cycles does not
// hold millions of spans; the first keepRaw spans stay for -spans.
type spanRec struct {
	t0    time.Time
	spans []span
	op    int32

	self  map[string]int64 // summed self time by name, ns
	count map[string]int64 // spans by name
	raw   []span
}

// keepRaw bounds the spans retained for -spans (32 B each plus name).
const keepRaw = 1 << 18

func newSpanRec() *spanRec {
	return &spanRec{t0: time.Now(), self: map[string]int64{}, count: map[string]int64{}}
}

// A nil *spanRec records nothing, so the untraced path of a driver is
// the traced path with a nil recorder.

// now is the recorder's clock, in ns.
func (r *spanRec) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// begin opens a span under parent (-1 for none) and returns its index.
func (r *spanRec) begin(name string, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: r.op, Start: r.now()})
	return int32(len(r.spans) - 1)
}

func (r *spanRec) end(i int32) {
	if r != nil {
		r.spans[i].End = r.now()
	}
}

// add records a finished span from stamps the caller took itself (the
// cycle drivers stamp each phase boundary once).
func (r *spanRec) add(name string, parent int32, start, end int64) {
	if r != nil {
		r.spans = append(r.spans, span{Name: name, Parent: parent, Op: r.op, Start: start, End: end})
	}
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover. Children are clipped to the parent's interval;
// spans of one recorder come from one goroutine, so siblings never
// overlap and the covered part is the plain sum.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed: its op failed part-way
		}
		self[i] += s.End - s.Start
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			self[s.Parent] -= hi - lo
		}
	}
	return self
}

// fold adds the open op's spans to the per-name totals and starts the
// next op. Call it outside the timed region.
func (r *spanRec) fold() {
	for i, d := range selfTimes(r.spans) {
		r.self[r.spans[i].Name] += d
		r.count[r.spans[i].Name]++
	}
	r.keep(r.spans)
	r.spans = r.spans[:0]
	r.op++
}

// keep retains spans for -spans while there is room, re-basing their
// parent links onto the retained list.
func (r *spanRec) keep(spans []span) {
	base := int32(len(r.raw))
	for _, s := range spans[:min(keepRaw-len(r.raw), len(spans))] {
		if s.Parent >= 0 {
			s.Parent += base
		}
		r.raw = append(r.raw, s)
	}
}

// merge adds another recorder's folded totals (one recorder per client
// goroutine on the service workload).
func (r *spanRec) merge(o *spanRec) {
	for k, v := range o.self {
		r.self[k] += v
	}
	for k, v := range o.count {
		r.count[k] += v
	}
	r.keep(o.raw)
}

// ms reports the mean self time of the named span, in milliseconds.
func (r *spanRec) ms(name string) float64 {
	if r.count[name] == 0 {
		return 0
	}
	return float64(r.self[name]) / float64(r.count[name]) / 1e6
}

// writeJSONL writes the retained raw spans, one JSON object a line.
func (r *spanRec) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i, s := range r.raw {
		rec := struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int32  `json:"parent"`
			Op     int32  `json:"op"`
		}{i, s.Name, s.Start, s.End, s.Parent, s.Op}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}
