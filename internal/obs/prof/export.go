package prof

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/sim"
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
// the end. Every shard is visited in unit order and every output slice
// is sorted, so the result is deterministic.
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
	var pathBuf []int32
	for pe := range p.pes {
		s := &p.pes[pe]
		local := make(map[runAggKey]int64, len(s.agg)+len(s.pending)+1)
		for k, v := range s.agg {
			local[k] = v
		}
		for _, r := range s.pending {
			local[runAggKey{node: r.node, pc: r.pc, state: r.state}] += r.count
		}
		if s.cur.count > 0 {
			local[runAggKey{node: s.cur.node, pc: s.cur.pc, state: s.cur.state}] += s.cur.count
		}
		keys := make([]runAggKey, 0, len(local))
		for k := range local {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].node != keys[j].node {
				return keys[i].node < keys[j].node
			}
			if keys[i].pc != keys[j].pc {
				return keys[i].pc < keys[j].pc
			}
			return keys[i].state < keys[j].state
		})
		row := PERow{PE: pe}
		for _, k := range keys {
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

// mergeAddrs joins the PE-side heatmap (linear-keyed) with the
// module-side serve counts and the network combine counts (both keyed
// by hashed address), PE-major then sorted.
func (p *Profiler) mergeAddrs() []AddrRow {
	rows := make(map[int64]*AddrRow)
	for pe := range p.pes {
		s := &p.pes[pe]
		linears := make([]int64, 0, len(s.addrs))
		for a := range s.addrs {
			linears = append(linears, a)
		}
		sort.Slice(linears, func(i, j int) bool { return linears[i] < linears[j] })
		for _, lin := range linears {
			st := s.addrs[lin]
			r := rows[lin]
			if r == nil {
				r = &AddrRow{Addr: lin, MM: st.hashed.MM, Word: st.hashed.Word}
				rows[lin] = r
			}
			r.Accesses += st.accesses
			r.RMW += st.rmw
			r.WaitCycles += st.waits
		}
	}
	byHashed := make(map[msg.Addr]*AddrRow, len(rows))
	for _, r := range rows {
		byHashed[msg.Addr{MM: r.MM, Word: r.Word}] = r
	}
	orphan := func(h msg.Addr) *AddrRow {
		r := byHashed[h]
		if r == nil {
			r = &AddrRow{Addr: -1, MM: h.MM, Word: h.Word}
			byHashed[h] = r
			rows[-int64(len(rows))-2] = r // unique negative placeholder key
		}
		return r
	}
	for mm := range p.mms {
		words := make([]int, 0, len(p.mms[mm].served))
		for w := range p.mms[mm].served {
			words = append(words, w)
		}
		sort.Ints(words)
		for _, w := range words {
			orphan(msg.Addr{MM: mm, Word: w}).Served += p.mms[mm].served[w]
		}
	}
	for _, sh := range p.nets {
		addrs := make([]msg.Addr, 0, len(sh.combines))
		for a := range sh.combines {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool {
			if addrs[i].MM != addrs[j].MM {
				return addrs[i].MM < addrs[j].MM
			}
			return addrs[i].Word < addrs[j].Word
		})
		for _, a := range addrs {
			orphan(a).Combines += sh.combines[a]
		}
	}
	out := make([]AddrRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MM != out[j].MM {
			return out[i].MM < out[j].MM
		}
		return out[i].Word < out[j].Word
	})
	return out
}

func (p *Profiler) mergeLocks() []LockRow {
	merged := make(map[int64]*sim.Histogram)
	for pe := range p.pes {
		s := &p.pes[pe]
		addrs := make([]int64, 0, len(s.locks))
		for a := range s.locks {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			h := merged[a]
			if h == nil {
				h = sim.NewHistogram(1024)
				merged[a] = h
			}
			h.Merge(s.locks[a])
		}
	}
	addrs := make([]int64, 0, len(merged))
	for a := range merged {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	rows := make([]LockRow, 0, len(addrs))
	for _, a := range addrs {
		h := merged[a]
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
