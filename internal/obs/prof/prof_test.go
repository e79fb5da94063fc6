package prof

import (
	"bytes"
	"math/big"
	"reflect"
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
	p.SetMMs(1)
	a := msg.Addr{MM: 0, Word: 7}
	poll := func(val int64) {
		p.ProfCycle(0, 4, obs.ProfExecute) // the load issues
		p.ProfIssue(0, 4, msg.Load, 7, a)
		p.ProfCycle(0, 4, obs.ProfMemWait)
		p.ProfCycle(0, 4, obs.ProfMemWait)
		p.ProfDeliver(0, 4, msg.Load, 7, a, val, 2)
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

// TestHeatmapZeroAllocOnKnownWords: the per-word heatmap keeps its
// records by value, in one map keyed by module and word; the first touch of a word may
// grow it, every later issue, delivery, serve and combine on that word
// allocates nothing — and each merged row sums every PE's traffic to
// its word.
func TestHeatmapZeroAllocOnKnownWords(t *testing.T) {
	const words = 100
	p := New(Config{PEs: 2})
	p.SetMMs(8)
	touch := func() {
		for pe := 0; pe < 2; pe++ {
			for w := int64(0); w < words; w++ {
				a := msg.Addr{MM: int(w % 8), Word: int(w)}
				p.ProfIssue(pe, 0, msg.FetchAdd, w, a)
				p.ProfIssue(pe, 0, msg.Load, w, a)
				p.ProfDeliver(pe, 0, msg.Load, w, a, 0, 10+w)
				p.ProfServe(a.MM, a.Word, msg.Load)
				p.Emit(obs.Event{Kind: obs.KindCombine, Addr: a})
			}
		}
	}
	touch()
	if avg := testing.AllocsPerRun(10, touch); avg != 0 {
		t.Errorf("issue and delivery on known words allocate %.1f times a round, want 0", avg)
	}
	p.ProfServe(8, 0, msg.Load)    // an unsized module: dropped
	p.ProfServe(0, 1000, msg.Load) // a word no PE touched: address unknown
	rows := p.Merged().Addrs
	if len(rows) != words+1 {
		t.Fatalf("%d heatmap rows, want %d", len(rows), words+1)
	}
	for _, r := range rows {
		if r.Word == 1000 {
			if r.MM != 0 || r.Addr != -1 || r.Served != 1 || r.Accesses != 0 {
				t.Errorf("serve-only row %+v", r)
			}
			continue
		}
		// 12 rounds on 2 PEs: two issues (one of them an RMW), one
		// delivery, one serve and one combine each.
		if r.MM != int(r.Addr%8) || r.Word != int(r.Addr) || r.Accesses != 48 || r.RMW != 24 ||
			r.WaitCycles != 24*(10+r.Addr) || r.Served != 24 || r.Combines != 24 {
			t.Errorf("heatmap row %+v", r)
		}
	}
}

// TestNewAllocBudget: New makes the same objects for 64 PEs as for the
// paper's 4 096. Every map is profiler-wide with the PE in its key and
// every PE's root call node is cut from one array, so no PE costs an
// object before it runs — and no map is left to be made on a cycle's
// path.
func TestNewAllocBudget(t *testing.T) {
	count := func(pes int) float64 {
		return testing.AllocsPerRun(5, func() { New(Config{PEs: pes}) })
	}
	small, paper := count(64), count(4096)
	t.Logf("New: %.0f objects at 64 PEs, %.0f at 4096", small, paper)
	if small != paper {
		t.Errorf("New makes %.0f objects at 64 PEs and %.0f at 4096, want the same", small, paper)
	}
}

// TestHeatmapDropsUnkeyableWords: a word the heatmap's mm<<32 | word key
// cannot hold — negative, or past 32 bits, as MultHash can make of a
// guest address — is dropped, as an unsized module is; a word at the
// edge of the key keeps its place behind its module's smaller words.
func TestHeatmapDropsUnkeyableWords(t *testing.T) {
	p := New(Config{PEs: 1})
	p.SetMMs(2)
	for _, w := range []int{-1, 1 << 32, 1<<32 - 1, 7} {
		p.ProfServe(1, w, msg.Load)
	}
	p.ProfServe(0, 1<<32-1, msg.Load)
	var got []msg.Addr
	for _, r := range p.Merged().Addrs {
		got = append(got, msg.Addr{MM: r.MM, Word: r.Word})
	}
	want := []msg.Addr{{MM: 0, Word: 1<<32 - 1}, {MM: 1, Word: 7}, {MM: 1, Word: 1<<32 - 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("heatmap rows at %v, want %v", got, want)
	}
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

// shapeProfile is a one-PE profile that carries every JSONL record type.
func shapeProfile() *Profiler {
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
	p.ProfDeliver(0, 0, msg.FetchAdd, 11, a, 1, 1)
	p.ProfServe(1, 3, msg.FetchAdd)
	p.ProfCycle(0, 1, obs.ProfExecute)
	p.AddCriticalPaths([]CriticalPath{{Root: 9, MM: 1, Word: 3, Latency: 4, TreeSpans: 1, Depth: 1}})
	return p
}

func shapeJSONL(t testing.TB) []byte {
	var buf bytes.Buffer
	if err := shapeProfile().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJSONLShape: the JSONL export opens with a meta record and carries
// every record type for a populated profile.
func TestJSONLShape(t *testing.T) {
	out := string(shapeJSONL(t))
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

// TestJSONLRoundTrip: ReadJSONL returns every exported field of the
// Merged that WriteJSONL wrote, the state names and the source lines.
func TestJSONLRoundTrip(t *testing.T) {
	p := shapeProfile()
	want := p.Merged()
	got, states, src, err := ReadJSONL(bytes.NewReader(shapeJSONL(t)))
	if err != nil {
		t.Fatal(err)
	}
	if got.File != want.File || got.TotalCycles != want.TotalCycles {
		t.Errorf("file %q, %d cycles; want %q, %d", got.File, got.TotalCycles, want.File, want.TotalCycles)
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"PEs", got.PEs, want.PEs},
		{"PCs", got.PCs, want.PCs},
		{"Funcs", got.Funcs, want.Funcs},
		{"Addrs", got.Addrs, want.Addrs},
		{"Locks", got.Locks, want.Locks},
		{"Paths", got.Paths, want.Paths},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s read back as %+v, want %+v", f.name, f.got, f.want)
		}
	}
	for i, name := range states {
		if name != obs.ProfState(i).String() {
			t.Errorf("state %d named %q, want %q", i, name, obs.ProfState(i))
		}
	}
	if len(states) != int(obs.NumProfStates) {
		t.Errorf("%d state names, want %d", len(states), obs.NumProfStates)
	}
	if wantSrc := strings.Split(strings.TrimRight(p.cfg.Source, "\n"), "\n"); !reflect.DeepEqual(src, wantSrc) {
		t.Errorf("source read back as %q, want %q", src, wantSrc)
	}
}

// inconsistentJSONL are profiles WriteJSONL cannot have written, each
// with the line ReadJSONL must name. The first made `tables -prof` draw
// a bar of -20 characters and panic.
var inconsistentJSONL = []struct {
	why, in, line string
}{
	{"negative count", `{"type":"meta","file":"x.s","pes":1,"total_cycles":10}
{"type":"pe","pe":0,"total":10,"states":[-5]}`, "line 2 (pe): "},
	{"states short of total", `{"type":"meta","file":"x.s","pes":1,"total_cycles":10}
{"type":"pe","pe":0,"total":10,"states":[4,5]}`, "line 2 (pe): "},
	{"states past int64", `{"type":"meta","file":"x.s","pes":1,"total_cycles":1}
{"type":"pe","pe":0,"total":1,"states":[9223372036854775807,9223372036854775807,3]}`, "line 2 (pe): "},
	{"pe totals short of total_cycles", `{"type":"meta","file":"x.s","pes":2,"total_cycles":10}
{"type":"pe","pe":0,"total":4,"states":[4]}
{"type":"pe","pe":1,"total":5,"states":[5]}`, "line 1 (meta): "},
	{"negative func count", `{"type":"meta","file":"x.s","pes":0,"total_cycles":0}
{"type":"func","name":"f","flat":-1,"cum":0,"states":[]}`, "line 2 (func): "},
	{"record before meta", `{"type":"pe","pe":0,"total":0,"states":[]}
{"type":"meta","file":"x.s","pes":1,"total_cycles":0}`, "line 1 (pe): "},
}

// TestReadJSONLRefusesInconsistent: a negative count, a pe record whose
// states miss its total, and pe totals that miss total_cycles are each
// refused on the line they were found.
func TestReadJSONLRefusesInconsistent(t *testing.T) {
	for _, tc := range inconsistentJSONL {
		_, _, _, err := ReadJSONL(strings.NewReader(tc.in))
		if err == nil || !strings.HasPrefix(err.Error(), tc.line) {
			t.Errorf("%s: error %v, want one starting %q", tc.why, err, tc.line)
		}
	}
}

// FuzzReadJSONL: ReadJSONL never panics on what `tables -prof` reads
// from disk, every error it returns names its line, and a profile it
// accepts holds what `tables -prof` draws its bars from: each PE's
// states are non-negative and sum to its total, and the totals to the
// profile's.
func FuzzReadJSONL(f *testing.F) {
	out := shapeJSONL(f)
	f.Add(out)
	f.Add(out[:bytes.IndexByte(out, '\n')/2]) // a truncated meta record
	for _, tc := range inconsistentJSONL {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, _, _, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "line ") {
				t.Errorf("error %q names no line", err)
			}
			return
		}
		var total big.Int
		for _, r := range m.PEs {
			var states big.Int
			for _, v := range r.States {
				if v < 0 {
					t.Fatalf("pe %d accepted with a negative state count %d", r.PE, v)
				}
				states.Add(&states, big.NewInt(v))
			}
			if states.Cmp(big.NewInt(r.Total)) != 0 {
				t.Fatalf("pe %d accepted with states summing to %v, total %d", r.PE, &states, r.Total)
			}
			total.Add(&total, &states)
		}
		if total.Cmp(big.NewInt(m.TotalCycles)) != 0 {
			t.Fatalf("accepted with pe totals summing to %v, total cycles %d", &total, m.TotalCycles)
		}
	})
}
