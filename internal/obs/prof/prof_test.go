package prof

import (
	"bytes"
	"strings"
	"testing"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/reqtrace"
)

// toySrc has two labeled regions and a call, so profiles of it carry
// stacks.
const toySrc = `
        li   r1, 5
        jal  r31, work
        halt
work:   addi r1, r1, -1
        bne  r1, r0, work
        jr   r31
`

// TestFuncAttribution drives the profiler by hand through a program
// with two labeled regions and checks flat/cum rollup and source
// mapping in the merged view.
func TestFuncAttribution(t *testing.T) {
	prog := isa.MustAssemble(toySrc)
	p := New(Config{PEs: 1, Programs: []*isa.Program{prog}, File: "toy.s"})
	// pc 0,1 in _start; jal at 1 targets work (pc 3); return pc is 2.
	p.ProfCycle(0, 0, obs.ProfExecute)
	p.ProfCycle(0, 1, obs.ProfExecute) // jal: pushes frame ret=2
	for i := 0; i < 10; i++ {
		p.ProfCycle(0, 3, obs.ProfExecute)
		p.ProfCycle(0, 4, obs.ProfExecute)
	}
	p.ProfCycle(0, 5, obs.ProfExecute)
	p.ProfCycle(0, 2, obs.ProfExecute) // back at ret: pops frame
	m := p.Merged()

	if m.TotalCycles != 24 {
		t.Fatalf("total %d, want 24", m.TotalCycles)
	}
	var start, work *FuncRow
	for i := range m.Funcs {
		switch m.Funcs[i].Name {
		case "toy.s:_start":
			start = &m.Funcs[i]
		case "toy.s:work":
			work = &m.Funcs[i]
		}
	}
	if start == nil || work == nil {
		names := make([]string, len(m.Funcs))
		for i, f := range m.Funcs {
			names[i] = f.Name
		}
		t.Fatalf("missing func rows, got %v", names)
	}
	if work.Flat != 21 {
		t.Errorf("work flat %d, want 21", work.Flat)
	}
	if start.Flat != 3 {
		t.Errorf("_start flat %d, want 3", start.Flat)
	}
	// The work cycles run under _start's call frame, so _start's
	// cumulative count covers the whole run.
	if start.Cum != 24 {
		t.Errorf("_start cum %d, want 24", start.Cum)
	}
	for _, r := range m.PCs {
		if r.PC == 3 && !strings.Contains(r.Text, "addi") {
			t.Errorf("pc 3 text %q, want the addi line", r.Text)
		}
	}
}

// TestSpinReclassification: pending execute/mem-wait cycles at a
// polling pc are retroactively flipped to spin when the same (pc, addr)
// load returns an unchanged value twice.
func TestSpinReclassification(t *testing.T) {
	p := New(Config{PEs: 1})
	a := msg.Addr{MM: 0, Word: 7}
	poll := func(val int64) {
		p.ProfCycle(0, 4, obs.ProfExecute) // the load issues
		p.ProfIssue(0, 4, msg.Load, 7, a)
		p.ProfCycle(0, 4, obs.ProfMemWait)
		p.ProfCycle(0, 4, obs.ProfMemWait)
		p.ProfDeliver(0, 4, msg.Load, 7, val, 2)
		p.ProfCycle(0, 5, obs.ProfExecute) // the branch back
	}
	poll(1) // first observation: baseline value, not yet spin
	poll(1) // unchanged: everything buffered since last verdict is spin
	poll(1)
	poll(2) // changed: loop exits, these cycles stay execute/mem-wait
	m := p.Merged()
	if m.TotalCycles != 16 {
		t.Fatalf("total %d, want 16", m.TotalCycles)
	}
	var spin, execute, wait int64
	for _, r := range m.PEs {
		spin += r.States[obs.ProfSpin]
		execute += r.States[obs.ProfExecute]
		wait += r.States[obs.ProfMemWait]
	}
	// Iterations 2 and 3 (4 cycles each) reclassify to spin; iterations
	// 1 and 4 keep their original attribution.
	if spin != 8 {
		t.Errorf("spin %d cycles, want 8 (got execute=%d wait=%d)", spin, execute, wait)
	}
	if execute != 4 || wait != 4 {
		t.Errorf("execute=%d wait=%d, want 4 and 4", execute, wait)
	}
}

// TestPprofRoundTrip: synthetic samples survive encode → ParsePprof
// with values, function names and state labels intact.
// TestHeatmapZeroAllocOnKnownWords: the per-word heatmap keeps its
// records by value, one map per PE; the first touch of a word may grow
// it, every later issue and delivery on that word allocates nothing —
// and the merged rows are sums over the PEs under the translation
// learned at issue.
func TestHeatmapZeroAllocOnKnownWords(t *testing.T) {
	const words = 100
	p := New(Config{PEs: 2})
	touch := func() {
		for pe := 0; pe < 2; pe++ {
			for w := int64(0); w < words; w++ {
				p.ProfIssue(pe, 0, msg.FetchAdd, w, msg.Addr{MM: int(w % 8), Word: int(w)})
				p.ProfIssue(pe, 0, msg.Load, w, msg.Addr{MM: int(w % 8), Word: int(w)})
				p.ProfDeliver(pe, 0, msg.Load, w, 0, 10+w)
			}
		}
	}
	touch()
	if avg := testing.AllocsPerRun(10, touch); avg != 0 {
		t.Errorf("issue and delivery on known words allocate %.1f times a round, want 0", avg)
	}
	rows := p.Merged().Addrs
	if len(rows) != words {
		t.Fatalf("%d heatmap rows, want %d", len(rows), words)
	}
	for _, r := range rows {
		// 12 rounds on 2 PEs: two issues (one of them an RMW) and one delivery each.
		if r.MM != int(r.Addr%8) || r.Word != int(r.Addr) || r.Accesses != 48 || r.RMW != 24 || r.WaitCycles != 24*(10+r.Addr) {
			t.Errorf("heatmap row %+v", r)
		}
	}
}

func TestPprofRoundTrip(t *testing.T) {
	prog := isa.MustAssemble(`
start:  li  r1, 1
        halt
`)
	p := New(Config{PEs: 2, Programs: []*isa.Program{prog}, File: "rt.s"})
	p.ProfCycle(0, 0, obs.ProfExecute)
	p.ProfCycle(0, 1, obs.ProfExecute)
	p.ProfCycle(0, 1, obs.ProfHalted)
	p.ProfCycle(1, 0, obs.ProfExecute)
	b, err := p.PprofBytes()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := ParsePprof(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := pp.TotalValue(); got != 4 {
		t.Fatalf("decoded total %d, want 4", got)
	}
	var sawStart, sawHalted bool
	states := map[string]bool{}
	for i := range pp.Samples {
		name := pp.FuncName(&pp.Samples[i])
		if name == "rt.s:start" {
			sawStart = true
		}
		if name == haltedFunc {
			sawHalted = true
		}
		states[pp.Samples[i].Labels["state"]] = true
	}
	if !sawStart || !sawHalted {
		t.Errorf("function names lost: start=%v halted=%v", sawStart, sawHalted)
	}
	if !states["execute"] || !states["halted"] {
		t.Errorf("state labels lost: %v", states)
	}
}

// truncatedPprof are profile.proto inputs whose last field claims bytes
// the input does not have: a length-delimited field whose length is
// 2^64 - 1 (pos + n wraps to less than the input's length), and a fixed32
// and a fixed64 field cut short.
var truncatedPprof = [][]byte{
	{0x0a, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	{0x0d, 0x01, 0x02},
	{0x09, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07},
}

func TestParsePprofRejectsTruncated(t *testing.T) {
	for _, b := range truncatedPprof {
		if _, err := ParsePprof(b); err == nil {
			t.Errorf("ParsePprof(% x) accepted a truncated field", b)
		}
	}
}

// FuzzParsePprof: ParsePprof never panics (cmd/tables -prof feeds it
// files from disk), and a profile WritePprof writes — of the PE cycles
// the input spells, three bytes a cycle — parses back to the samples it
// was written from: value, state label, leaf function and pc.
func FuzzParsePprof(f *testing.F) {
	for _, b := range truncatedPprof {
		f.Add(b)
	}
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 3, 0, 0, 4, 0, 1, 2, 5, 1, 6, 2})
	prog := isa.MustAssemble(toySrc)
	f.Fuzz(func(t *testing.T, data []byte) {
		ParsePprof(data) // an error is fine; a panic is not

		p := New(Config{PEs: 2, Programs: []*isa.Program{prog}, File: "toy.s"})
		for i := 0; i+2 < len(data); i += 3 {
			p.ProfCycle(int(data[i]%2), int(data[i+1]%8), obs.ProfState(data[i+2]%uint8(obs.NumProfStates)))
		}
		m := p.Merged()
		b, err := p.PprofBytes()
		if err != nil {
			t.Fatal(err)
		}
		pp, err := ParsePprof(b)
		if err != nil {
			t.Fatalf("ParsePprof of WritePprof's output: %v", err)
		}
		if len(pp.Samples) != len(m.samples) || pp.TotalValue() != m.TotalCycles {
			t.Fatalf("%d samples of %d cycles parsed back as %d of %d", len(m.samples), m.TotalCycles, len(pp.Samples), pp.TotalValue())
		}
		for i := range pp.Samples {
			got, want := &pp.Samples[i], &m.samples[i]
			leaf := pp.Locations[got.LocIDs[0]]
			if len(got.Values) != 1 || got.Values[0] != want.cycles || got.Labels["state"] != want.state.String() ||
				pp.FuncName(got) != m.funcAt(want.pc, want.state) || leaf.Address != uint64(want.pc)+1 ||
				len(got.LocIDs) != 1+len(want.stack) {
				t.Errorf("sample %d %+v parsed back as %+v (leaf %+v)", i, *want, *got, leaf)
			}
		}
	})
}

// TestCriticalPaths: a three-span combining tree (two children absorbed
// by one root) yields a path from the slowest child through the root.
func TestCriticalPaths(t *testing.T) {
	spans := []*reqtrace.Span{
		{
			ID: 1, PE: 0, Op: "faa", MM: 2, Word: 9,
			Issued: 10, Done: 60, Latency: 50, Children: []uint64{2, 3},
			Hops: []reqtrace.Hop{{Kind: reqtrace.HopInject, Cycle: 10}},
		},
		{
			ID: 2, PE: 1, Op: "faa", MM: 2, Word: 9,
			Issued: 12, Done: 64, Latency: 52, Parent: 1, WaitCycles: 30,
			Hops: []reqtrace.Hop{{Kind: reqtrace.HopCombine, Cycle: 20, Stage: 1}},
		},
		{
			ID: 3, PE: 2, Op: "faa", MM: 2, Word: 9,
			Issued: 14, Done: 70, Latency: 56, Parent: 1, WaitCycles: 34,
			Hops: []reqtrace.Hop{{Kind: reqtrace.HopCombine, Cycle: 22, Stage: 2}},
		},
	}
	paths := CriticalPaths(spans, 5)
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1", len(paths))
	}
	cp := paths[0]
	if cp.Root != 1 || cp.MM != 2 || cp.Word != 9 || cp.TreeSpans != 3 {
		t.Fatalf("path head wrong: %+v", cp)
	}
	// Longest chain: root 1 -> span 3 (latest Done).
	if cp.Latency != 60 { // maxDone 70 - minIssued 10
		t.Errorf("latency %d, want 60", cp.Latency)
	}
	if len(cp.Steps) != 2 || cp.Steps[0].ID != 1 || cp.Steps[1].ID != 3 {
		t.Fatalf("steps wrong: %+v", cp.Steps)
	}
	if cp.Steps[0].CombineStage != -1 || cp.Steps[1].CombineStage != 2 {
		t.Errorf("combine stages wrong: %+v", cp.Steps)
	}
}

// TestJSONLShape: the JSONL export opens with a meta record and carries
// every record type for a populated profile.
func TestJSONLShape(t *testing.T) {
	prog := isa.MustAssemble(`
loop:   faa r3, 0(r1), r2
        jmp loop
`)
	p := New(Config{PEs: 1, Programs: []*isa.Program{prog}, File: "j.s", Source: "loop: faa r3, 0(r1), r2\n jmp loop\n"})
	p.SetMMs(2)
	a := msg.Addr{MM: 1, Word: 3}
	p.ProfCycle(0, 0, obs.ProfExecute)
	p.ProfIssue(0, 0, msg.FetchAdd, 11, a)
	p.ProfCycle(0, 0, obs.ProfMemWait)
	p.ProfDeliver(0, 0, msg.FetchAdd, 11, 1, 1)
	p.ProfServe(1, 3, msg.FetchAdd)
	p.ProfCycle(0, 1, obs.ProfExecute)
	p.AddCriticalPaths([]CriticalPath{{Root: 9, MM: 1, Word: 3, Latency: 4, TreeSpans: 1, Depth: 1}})
	var buf bytes.Buffer
	if err := p.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.HasPrefix(lines[0], `{"type":"meta",`) {
		t.Fatalf("first line %q, want meta record", lines[0])
	}
	for _, typ := range []string{`"type":"src"`, `"type":"pe"`, `"type":"func"`, `"type":"pc"`, `"type":"addr"`, `"type":"lock"`, `"type":"path"`} {
		if !strings.Contains(out, typ) {
			t.Errorf("JSONL missing %s record", typ)
		}
	}
}
