package prof

import (
	"bytes"
	"compress/gzip"
	"io"

	"ultracomputer/internal/obs"
)

// pprof-compatible export, hand-rolled against the profile.proto wire
// format (github.com/google/pprof) using only the stdlib. The emitted
// bytes are deterministic: samples, locations and functions are written
// in canonical sorted order and the gzip header carries no timestamp,
// so runs of the same seeded workload produce byte-identical profiles.
// Nothing in the repo reads these bytes back: stock go tool pprof does,
// and is the encoder's referee (TestStockPprofReadsExport).
//
// Wire schema subset (field numbers from profile.proto):
//
//	Profile:  1 sample_type  2 sample  3 mapping  4 location
//	          5 function  6 string_table  11 period_type  12 period
//	ValueType: 1 type  2 unit            (string-table indices)
//	Sample:    1 location_id*  2 value*  3 label
//	Label:     1 key  2 str              (string-table indices)
//	Mapping:   1 id  3 memory_limit  5 filename  7 has_functions
//	Location:  1 id  2 mapping_id  3 address  4 line
//	Line:      1 function_id  2 line
//	Function:  1 id  2 name  3 system_name  4 filename  5 start_line

type pbuf struct{ b []byte }

func (p *pbuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

// tag writes a field key; wire 0 = varint, 2 = length-delimited.
func (p *pbuf) tag(field, wire int) { p.varint(uint64(field)<<3 | uint64(wire)) }

func (p *pbuf) uint(field int, v uint64) {
	if v == 0 {
		return
	}
	p.tag(field, 0)
	p.varint(v)
}

func (p *pbuf) int(field int, v int64) { p.uint(field, uint64(v)) }

func (p *pbuf) bytes(field int, b []byte) {
	p.tag(field, 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) packedU64(field int, vs []uint64) {
	if len(vs) == 0 {
		return
	}
	var inner pbuf
	for _, v := range vs {
		inner.varint(v)
	}
	p.bytes(field, inner.b)
}

// stringTable interns strings; index 0 is always "".
type stringTable struct {
	idx  map[string]int64
	strs []string
}

func newStringTable() *stringTable {
	return &stringTable{idx: map[string]int64{"": 0}, strs: []string{""}}
}

func (t *stringTable) add(s string) int64 {
	if i, ok := t.idx[s]; ok {
		return i
	}
	i := int64(len(t.strs))
	t.idx[s] = i
	t.strs = append(t.strs, s)
	return i
}

// PprofBytes encodes the merged profile as a gzipped profile.proto
// message that `go tool pprof` reads directly.
func (p *Profiler) PprofBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := p.WritePprof(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WritePprof writes the gzipped profile to w.
func (p *Profiler) WritePprof(w io.Writer) error {
	m := p.Merged()
	raw := encodePprof(m)
	zw := gzip.NewWriter(w) // zero ModTime: deterministic bytes
	if _, err := zw.Write(raw); err != nil {
		return err
	}
	return zw.Close()
}

func encodePprof(m *Merged) []byte {
	st := newStringTable()
	cyclesIdx := st.add("cycles")
	stateKey := st.add("state")
	stateIdx := make([]int64, obs.NumProfStates)
	for i := range stateIdx {
		stateIdx[i] = st.add(obs.ProfState(i).String())
	}

	// Functions: one per label span, in span order, plus pseudo entries
	// on demand — ids assigned in first-use order over sorted samples,
	// so numbering is canonical.
	funcID := make(map[string]uint64)
	type funcDef struct {
		id        uint64
		name      string
		startLine int
	}
	var funcs []funcDef
	internFunc := func(name string, startLine int) uint64 {
		if id, ok := funcID[name]; ok {
			return id
		}
		id := uint64(len(funcs) + 1)
		funcID[name] = id
		funcs = append(funcs, funcDef{id: id, name: name, startLine: startLine})
		return id
	}
	startLineOf := func(pc int32, state obs.ProfState) int {
		if m.prog == nil || state == obs.ProfHalted {
			return 0
		}
		for _, sp := range m.spans {
			if int(pc) >= sp.Start && int(pc) < sp.End {
				return m.prog.Line(sp.Start)
			}
		}
		return 0
	}

	// Locations: one per distinct (function, pc); ids in first-use order.
	type locKey struct {
		fn uint64
		pc int32
	}
	locID := make(map[locKey]uint64)
	type locDef struct {
		id   uint64
		addr uint64
		fn   uint64
		line int
	}
	var locs []locDef
	internLoc := func(pc int32, state obs.ProfState) uint64 {
		fn := internFunc(m.funcAt(pc, state), startLineOf(pc, state))
		k := locKey{fn: fn, pc: pc}
		if id, ok := locID[k]; ok {
			return id
		}
		id := uint64(len(locs) + 1)
		locID[k] = id
		line := 0
		if m.prog != nil && state != obs.ProfHalted {
			line = m.prog.Line(int(pc))
		}
		locs = append(locs, locDef{id: id, addr: uint64(pc) + 1, fn: fn, line: line})
		return id
	}

	var samples pbuf
	locBuf := make([]uint64, 0, 16)
	for i := range m.samples {
		sr := &m.samples[i]
		locBuf = locBuf[:0]
		locBuf = append(locBuf, internLoc(sr.pc, sr.state))
		for _, c := range sr.stack {
			locBuf = append(locBuf, internLoc(c, obs.ProfExecute))
		}
		var sample pbuf
		sample.packedU64(1, locBuf)
		sample.packedU64(2, []uint64{uint64(sr.cycles)})
		var label pbuf
		label.int(1, stateKey)
		label.int(2, stateIdx[sr.state])
		sample.bytes(3, label.b)
		samples.bytes(2, sample.b)
	}

	var out pbuf
	var vt pbuf
	vt.int(1, cyclesIdx)
	vt.int(2, cyclesIdx)
	out.bytes(1, vt.b) // sample_type
	out.b = append(out.b, samples.b...)
	var mapping pbuf
	mapping.uint(1, 1)
	mapping.uint(3, 1<<32) // memory_limit
	mapping.int(5, st.add(m.File))
	mapping.uint(7, 1) // has_functions
	out.bytes(3, mapping.b)
	for _, l := range locs {
		var loc pbuf
		loc.uint(1, l.id)
		loc.uint(2, 1)
		loc.uint(3, l.addr)
		var line pbuf
		line.uint(1, l.fn)
		line.int(2, int64(l.line))
		loc.bytes(4, line.b)
		out.bytes(4, loc.b)
	}
	fileIdx := st.add(m.File)
	for _, f := range funcs {
		var fn pbuf
		fn.uint(1, f.id)
		nameIdx := st.add(f.name)
		fn.int(2, nameIdx)
		fn.int(3, nameIdx)
		fn.int(4, fileIdx)
		fn.int(5, int64(f.startLine))
		out.bytes(5, fn.b)
	}
	for _, s := range st.strs {
		out.bytes(6, []byte(s))
	}
	out.bytes(11, vt.b) // period_type
	out.uint(12, 1)     // period
	return out.b
}
