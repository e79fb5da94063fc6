package reqtrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"ultracomputer/internal/obs"
)

// WriteSpansJSONL writes the flight ring — the last completed spans, in
// completion order — one JSON object per line. Output is byte-
// deterministic for a deterministic run.
func (t *Tracer) WriteSpansJSONL(w io.Writer) error {
	return writeJSONL(w, t.Spans())
}

// WriteFlightJSONL dumps the flight recorder: the completed-span ring in
// completion order followed by slow-reservoir spans that have already
// rotated out of the ring (ordered by completion). This is what a
// conformance alert writes to flight-<cycle>.jsonl and what
// /trace/flight serves.
func (t *Tracer) WriteFlightJSONL(w io.Writer) error {
	t.mu.Lock()
	spans := t.ringSpans()
	inRing := len(spans)
	for _, s := range t.slow {
		if s.refs == 1 { // held by the reservoir alone: out of the ring
			spans = append(spans, s)
		}
	}
	evicted := spans[inRing:]
	sort.Slice(evicted, func(i, j int) bool {
		if evicted[i].Done != evicted[j].Done {
			return evicted[i].Done < evicted[j].Done
		}
		return evicted[i].ID < evicted[j].ID
	})
	spans = copySpans(spans)
	t.mu.Unlock()
	return writeJSONL(w, spans)
}

func writeJSONL(w io.Writer, spans []*Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpans parses a JSONL span dump (the inverse of WriteSpansJSONL /
// WriteFlightJSONL); cmd/tables renders these as waterfalls.
func ReadSpans(r io.Reader) ([]*Span, error) {
	var out []*Span
	dec := json.NewDecoder(r)
	for {
		var s Span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, &s)
	}
}

// WriteChrome renders the flight ring as a Chrome trace_event file
// (chrome://tracing / Perfetto): one process per PE, one thread per
// request, an X slice per hop segment, and flow arrows connecting each
// combine's child to its parent. One trace microsecond equals one
// network cycle.
func (t *Tracer) WriteChrome(w io.Writer) error {
	var out []obs.ChromeEvent
	for _, s := range t.Spans() {
		tid := int(s.ID & 0xffffffff)
		out = append(out, obs.ChromeEvent{
			Name: "thread_name", Ph: "M", PID: s.PE, TID: tid,
			Args: map[string]any{"name": spanTitle(s)},
		})
		for i, h := range s.Hops {
			end := h.Cycle + 1
			if i+1 < len(s.Hops) && s.Hops[i+1].Cycle > h.Cycle {
				end = s.Hops[i+1].Cycle
			}
			args := map[string]any{"stage": h.Stage, "copy": h.Copy, "mm": h.MM}
			if h.Q != 0 {
				args["q_packets"] = h.Q
			}
			if h.Peer != 0 {
				args["peer"] = h.Peer
			}
			out = append(out, obs.ChromeEvent{
				Name: h.Kind.String(), Cat: "hop", Ph: "X",
				TS: h.Cycle, Dur: end - h.Cycle, PID: s.PE, TID: tid, Args: args,
			})
			if h.Kind == HopCombine && s.Parent != 0 && h.Peer == s.Parent {
				// Flow arrow child → parent, keyed by the child's ID.
				out = append(out, obs.ChromeEvent{
					Name: "combine", Cat: "genealogy", Ph: "s",
					TS: h.Cycle, PID: s.PE, TID: tid, ID: s.ID,
				})
			}
			if h.Kind == HopCombine && h.Peer != s.Parent {
				out = append(out, obs.ChromeEvent{
					Name: "combine", Cat: "genealogy", Ph: "f", BP: "e",
					TS: h.Cycle, PID: s.PE, TID: tid, ID: h.Peer,
				})
			}
		}
	}
	return obs.EncodeChrome(w, out, nil)
}

func spanTitle(s *Span) string {
	op := s.Op
	if op == "" {
		op = "?"
	}
	return fmt.Sprintf("%s %d:%d req %d", op, s.MM, s.Word, s.ID)
}
