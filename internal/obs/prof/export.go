package prof

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/obs"
)

// PCRow is the merged flat profile of one guest pc.
type PCRow struct {
	PC    int    `json:"pc"`
	Line  int    `json:"line,omitempty"`
	Func  string `json:"func,omitempty"`
	Text  string `json:"text,omitempty"`
	Total int64  `json:"total"`
	// States indexes by obs.ProfState: execute, cache-hit, memory-wait,
	// net-full-stall, spin, halted.
	States [obs.NumProfStates]int64 `json:"states"`
}

// FuncRow rolls cycles up to a label span. Flat counts cycles whose
// leaf pc lies in the span; Cum adds cycles spent in functions it
// called (shadow-stack attribution over JAL/return).
type FuncRow struct {
	Name   string                   `json:"name"`
	Flat   int64                    `json:"flat"`
	Cum    int64                    `json:"cum"`
	States [obs.NumProfStates]int64 `json:"states"`
}

// AddrRow is one shared word's contention heatmap entry.
type AddrRow struct {
	Addr       int64 `json:"addr"` // linear guest address, -1 when unknown
	MM         int   `json:"mm"`
	Word       int   `json:"word"`
	Accesses   int64 `json:"accesses"`
	RMW        int64 `json:"rmw"`
	Served     int64 `json:"served"`
	Combines   int64 `json:"combines"`
	WaitCycles int64 `json:"wait_cycles"`
}

// LockRow summarizes the wait-time distribution of one F&A cell.
type LockRow struct {
	Addr     int64   `json:"addr"`
	N        int64   `json:"n"`
	MeanWait float64 `json:"mean_wait"`
	P50      int64   `json:"p50"`
	P90      int64   `json:"p90"`
	P99      int64   `json:"p99"`
}

// PERow is one PE's per-state cycle totals.
type PERow struct {
	PE     int                      `json:"pe"`
	Total  int64                    `json:"total"`
	States [obs.NumProfStates]int64 `json:"states"`
}

// sampleRow is one merged (call stack, leaf pc, state) sample.
type sampleRow struct {
	key    string
	stack  []int32 // call-site pcs, innermost first
	pc     int32
	state  obs.ProfState
	cycles int64
}

// Merged is the cross-PE merged profile, the source of every export.
type Merged struct {
	File        string
	TotalCycles int64
	PEs         []PERow
	PCs         []PCRow
	Funcs       []FuncRow
	Addrs       []AddrRow
	Locks       []LockRow
	Paths       []CriticalPath

	samples []sampleRow
	spans   []isa.FuncSpan
	prog    *isa.Program
}

// Pseudo-function names for cycles without a symbolizable pc.
const (
	haltedFunc = "<halted>"
	guestFunc  = "<guest>"
)

func (m *Merged) funcAt(pc int32, state obs.ProfState) string {
	if state == obs.ProfHalted {
		return haltedFunc
	}
	if m.prog == nil {
		return guestFunc
	}
	if n := isa.FuncAt(m.spans, int(pc)); n != "" {
		return m.File + ":" + n
	}
	return guestFunc
}

func sampleKey(state obs.ProfState, pc int32, stack []int32) string {
	b := make([]byte, 0, 8+4*len(stack))
	b = append(b, byte(state))
	b = binary.AppendVarint(b, int64(pc))
	for _, c := range stack {
		b = binary.AppendVarint(b, int64(c))
	}
	return string(b)
}

// Merged builds the cross-PE merged view. It is non-destructive — runs
// still awaiting a spin verdict are counted under their provisional
// states — so it can run mid-simulation (live publishing) and again at
// the end. Every PE is visited in order and every output slice is
// sorted, so the result is deterministic.
func (p *Profiler) Merged() *Merged {
	m := &Merged{File: p.cfg.File, prog: p.progFor(0), Paths: p.paths}
	if m.File == "" {
		m.File = "guest"
	}
	if m.prog != nil {
		m.spans = m.prog.FuncSpans()
	}

	samples := make(map[string]*sampleRow)
	pcs := make(map[int32]*PCRow)
	local := make(map[runAggKey]int64, len(p.agg))
	for k, v := range p.agg {
		local[k] = v
	}
	for pe := range p.pes {
		s := &p.pes[pe]
		for _, r := range s.pending {
			local[runAggKey{pe: int32(pe), node: r.node, pc: r.pc, state: r.state}] += r.count
		}
		if s.cur.count > 0 {
			local[runAggKey{pe: int32(pe), node: s.cur.node, pc: s.cur.pc, state: s.cur.state}] += s.cur.count
		}
	}
	keys := make([]runAggKey, 0, len(local))
	for k := range local {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pe != keys[j].pe {
			return keys[i].pe < keys[j].pe
		}
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		if keys[i].pc != keys[j].pc {
			return keys[i].pc < keys[j].pc
		}
		return keys[i].state < keys[j].state
	})
	var pathBuf []int32
	for pe := range p.pes {
		s := &p.pes[pe]
		row := PERow{PE: pe}
		for ; len(keys) > 0 && keys[0].pe == int32(pe); keys = keys[1:] {
			k := keys[0]
			n := local[k]
			row.States[k.state] += n
			row.Total += n
			pathBuf = s.callPath(k.node, pathBuf)
			sk := sampleKey(k.state, k.pc, pathBuf)
			sr := samples[sk]
			if sr == nil {
				sr = &sampleRow{key: sk, stack: append([]int32(nil), pathBuf...), pc: k.pc, state: k.state}
				samples[sk] = sr
			}
			sr.cycles += n
			pr := pcs[k.pc]
			if pr == nil {
				pr = &PCRow{PC: int(k.pc)}
				pcs[k.pc] = pr
			}
			pr.States[k.state] += n
			pr.Total += n
		}
		m.TotalCycles += row.Total
		m.PEs = append(m.PEs, row)
	}

	// Canonical sample order: by encoded key (state, pc, path).
	m.samples = make([]sampleRow, 0, len(samples))
	for _, sr := range samples {
		m.samples = append(m.samples, *sr)
	}
	sort.Slice(m.samples, func(i, j int) bool { return m.samples[i].key < m.samples[j].key })

	m.PCs = make([]PCRow, 0, len(pcs))
	for _, pr := range pcs {
		pr.Func = m.funcAt(int32(pr.PC), obs.ProfExecute)
		if m.prog != nil {
			pr.Line = m.prog.Line(pr.PC)
			if pr.PC >= 0 && pr.PC < len(m.prog.Instrs) {
				pr.Text = m.prog.Instrs[pr.PC].String()
			}
		}
		m.PCs = append(m.PCs, *pr)
	}
	sort.Slice(m.PCs, func(i, j int) bool { return m.PCs[i].PC < m.PCs[j].PC })

	m.mergeFuncs()
	m.Addrs = p.mergeAddrs()
	m.Locks = p.mergeLocks()
	return m
}

// mergeFuncs builds the function rollup from the merged samples.
func (m *Merged) mergeFuncs() {
	rows := make(map[string]*FuncRow)
	get := func(name string) *FuncRow {
		r := rows[name]
		if r == nil {
			r = &FuncRow{Name: name}
			rows[name] = r
		}
		return r
	}
	seen := make(map[string]bool, 8)
	for i := range m.samples {
		sr := &m.samples[i]
		leaf := m.funcAt(sr.pc, sr.state)
		fr := get(leaf)
		fr.Flat += sr.cycles
		fr.States[sr.state] += sr.cycles
		// Cumulative: every function on the stack, counted once per sample.
		for k := range seen {
			delete(seen, k)
		}
		seen[leaf] = true
		for _, c := range sr.stack {
			name := m.funcAt(c, obs.ProfExecute)
			if !seen[name] {
				seen[name] = true
			}
		}
		for name := range seen {
			get(name).Cum += sr.cycles
		}
	}
	m.Funcs = make([]FuncRow, 0, len(rows))
	for _, r := range rows {
		m.Funcs = append(m.Funcs, *r)
	}
	sort.Slice(m.Funcs, func(i, j int) bool {
		if m.Funcs[i].Cum != m.Funcs[j].Cum {
			return m.Funcs[i].Cum > m.Funcs[j].Cum
		}
		return m.Funcs[i].Name < m.Funcs[j].Name
	})
}

// mergeAddrs lists the heatmap module by module, each module's words
// in order.
func (p *Profiler) mergeAddrs() []AddrRow {
	if len(p.words) == 0 {
		return nil
	}
	keys := make([]uint64, 0, len(p.words))
	for k := range p.words {
		keys = append(keys, k)
	}
	slices.Sort(keys) // module by module, each module's words in order
	out := make([]AddrRow, 0, len(keys))
	for _, k := range keys {
		r := p.words[k]
		out = append(out, AddrRow{
			Addr: r.addr, MM: int(k >> 32), Word: int(uint32(k)), Accesses: r.accesses, RMW: r.rmw,
			Served: r.served, Combines: r.combines, WaitCycles: r.waits,
		})
	}
	return out
}

func (p *Profiler) mergeLocks() []LockRow {
	addrs := make([]int64, 0, len(p.locks))
	for a := range p.locks {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	rows := make([]LockRow, 0, len(addrs))
	for _, a := range addrs {
		h := p.locks[a]
		rows = append(rows, LockRow{
			Addr: a, N: h.N(), MeanWait: h.Mean(),
			P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
		})
	}
	return rows
}

// jsonlMeta heads the JSONL export; States documents the order of every
// "states" array in the stream.
type jsonlMeta struct {
	Type        string   `json:"type"`
	File        string   `json:"file"`
	PEs         int      `json:"pes"`
	TotalCycles int64    `json:"total_cycles"`
	States      []string `json:"states"`
}

type jsonlSrc struct {
	Type string `json:"type"`
	Line int    `json:"line"`
	Text string `json:"text"`
}

// WriteJSONL streams the full profile as self-contained JSON lines:
// one meta record, the guest source (when known), then pe / func / pc /
// addr / lock / path records. `tables -prof` renders it without needing
// the original .s file.
func (p *Profiler) WriteJSONL(w io.Writer) error {
	m := p.Merged()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	states := make([]string, obs.NumProfStates)
	for i := range states {
		states[i] = obs.ProfState(i).String()
	}
	if err := enc.Encode(jsonlMeta{
		Type: "meta", File: m.File, PEs: len(m.PEs), TotalCycles: m.TotalCycles, States: states,
	}); err != nil {
		return err
	}
	if p.cfg.Source != "" {
		for i, line := range strings.Split(strings.TrimRight(p.cfg.Source, "\n"), "\n") {
			if err := enc.Encode(jsonlSrc{Type: "src", Line: i + 1, Text: line}); err != nil {
				return err
			}
		}
	}
	emit := func(typ string, row any) error {
		b, err := json.Marshal(row)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "{\"type\":%q,", typ); err != nil {
			return err
		}
		if _, err := bw.Write(b[1:]); err != nil { // strip the leading '{'
			return err
		}
		return bw.WriteByte('\n')
	}
	for i := range m.PEs {
		if err := emit("pe", &m.PEs[i]); err != nil {
			return err
		}
	}
	for i := range m.Funcs {
		if err := emit("func", &m.Funcs[i]); err != nil {
			return err
		}
	}
	for i := range m.PCs {
		if err := emit("pc", &m.PCs[i]); err != nil {
			return err
		}
	}
	for i := range m.Addrs {
		if err := emit("addr", &m.Addrs[i]); err != nil {
			return err
		}
	}
	for i := range m.Locks {
		if err := emit("lock", &m.Locks[i]); err != nil {
			return err
		}
	}
	for i := range m.Paths {
		if err := emit("path", &m.Paths[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL reads back what WriteJSONL wrote: the merged profile's
// exported fields, the state names every "states" array is indexed by,
// and the guest source, one line an element. Records of an unknown type
// are skipped. It refuses a profile WriteJSONL cannot have written: a
// record before the meta record, a negative count, a pe record whose
// states do not sum to its total, or pe totals that do not sum to the
// meta record's total_cycles. Every error names the line it was found on.
func ReadJSONL(r io.Reader) (m *Merged, states, src []string, err error) {
	m = &Merged{}
	var meta jsonlMeta
	metaLine := 0
	var peSum int64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return nil, nil, nil, fmt.Errorf("line %d: %v", n, err)
		}
		if metaLine == 0 && head.Type != "meta" {
			return nil, nil, nil, fmt.Errorf("line %d (%s): before the meta record", n, head.Type)
		}
		switch head.Type {
		case "meta":
			metaLine = n
			err = json.Unmarshal(line, &meta)
		case "src":
			var s jsonlSrc
			if err = json.Unmarshal(line, &s); err == nil && s.Line != len(src)+1 {
				err = fmt.Errorf("source line %d, want %d", s.Line, len(src)+1)
			}
			src = append(src, s.Text)
		case "pe":
			if m.PEs, err = appendRow(m.PEs, line); err == nil {
				row := &m.PEs[len(m.PEs)-1]
				var states int64
				if states, err = addCounts(0, row.States[:]...); err == nil && states != row.Total {
					err = fmt.Errorf("states sum to %d, total is %d", states, row.Total)
				}
				if err == nil {
					peSum, err = addCounts(peSum, row.Total)
				}
			}
		case "func":
			m.Funcs, err = appendRow(m.Funcs, line)
		case "pc":
			m.PCs, err = appendRow(m.PCs, line)
		case "addr":
			m.Addrs, err = appendRow(m.Addrs, line)
		case "lock":
			m.Locks, err = appendRow(m.Locks, line)
		case "path":
			m.Paths, err = appendRow(m.Paths, line)
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("line %d (%s): %v", n, head.Type, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, nil, fmt.Errorf("line %d: %v", n+1, err)
	}
	if meta.PEs != len(m.PEs) {
		return nil, nil, nil, fmt.Errorf("line %d (meta): %d PEs, but %d pe records", metaLine, meta.PEs, len(m.PEs))
	}
	if peSum != meta.TotalCycles {
		return nil, nil, nil, fmt.Errorf("line %d (meta): %d total cycles, but the pe records sum to %d", metaLine, meta.TotalCycles, peSum)
	}
	m.File, m.TotalCycles = meta.File, meta.TotalCycles
	return m, meta.States, src, nil
}

// addCounts adds non-negative counts to sum, refusing a sum past int64.
func addCounts(sum int64, counts ...int64) (int64, error) {
	for _, c := range counts {
		if sum > math.MaxInt64-c {
			return 0, fmt.Errorf("counts overflow int64")
		}
		sum += c
	}
	return sum, nil
}

// counts lists a record's counts, none of which may be negative.
func (r *PERow) counts() []int64   { return append([]int64{r.Total}, r.States[:]...) }
func (r *FuncRow) counts() []int64 { return append([]int64{r.Flat, r.Cum}, r.States[:]...) }
func (r *PCRow) counts() []int64   { return append([]int64{r.Total}, r.States[:]...) }
func (r *AddrRow) counts() []int64 {
	return []int64{r.Accesses, r.RMW, r.Served, r.Combines, r.WaitCycles}
}
func (r *LockRow) counts() []int64 { return []int64{r.N, r.P50, r.P90, r.P99} }
func (r *CriticalPath) counts() []int64 {
	return []int64{r.Latency, int64(r.TreeSpans), int64(r.Depth)}
}

// appendRow decodes one JSONL record into a row of rows' type, refusing
// a negative count.
func appendRow[T any, P interface {
	*T
	counts() []int64
}](rows []T, line []byte) ([]T, error) {
	var r T
	if err := json.Unmarshal(line, &r); err != nil {
		return rows, err
	}
	for _, c := range P(&r).counts() {
		if c < 0 {
			return rows, fmt.Errorf("negative count %d", c)
		}
	}
	return append(rows, r), nil
}
