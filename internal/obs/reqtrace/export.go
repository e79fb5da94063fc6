package reqtrace

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
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
