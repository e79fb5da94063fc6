package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/prof"
)

// runProf renders a guest profile written by ultrasim -prof-out: either
// the JSONL form (full annotated view — per-line source heat, function
// rollup, contention heatmap, lock waits, critical paths) or the
// gzipped pprof protobuf (decoded to a top-functions table). check adds
// a validation pass that fails on an empty or inconsistent profile —
// the `make prof` smoke test.
func runProf(w io.Writer, path string, check bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		return renderPprof(w, path, data, check)
	}
	return renderProfJSONL(w, path, data, check)
}

// renderPprof decodes our own pprof output back through the wire format
// — the same bytes go tool pprof consumes — and prints the per-function
// cycle totals.
func renderPprof(w io.Writer, path string, data []byte, check bool) error {
	pp, err := prof.ParsePprof(data)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	total := pp.TotalValue()
	if check {
		if total <= 0 || len(pp.Samples) == 0 || len(pp.Functions) == 0 {
			return fmt.Errorf("%s: profile is empty after pprof round-trip (total=%d samples=%d funcs=%d)",
				path, total, len(pp.Samples), len(pp.Functions))
		}
		fmt.Fprintf(w, "%s: pprof round-trip ok: %d cycles, %d samples, %d functions\n",
			path, total, len(pp.Samples), len(pp.Functions))
		return nil
	}
	type agg struct {
		name   string
		cycles int64
	}
	byFn := map[string]*agg{}
	byState := map[string]int64{}
	for i := range pp.Samples {
		s := &pp.Samples[i]
		v := int64(0)
		if len(s.Values) > 0 {
			v = s.Values[0]
		}
		name := pp.FuncName(s)
		a := byFn[name]
		if a == nil {
			a = &agg{name: name}
			byFn[name] = a
		}
		a.cycles += v
		byState[s.Labels["state"]] += v
	}
	rows := make([]*agg, 0, len(byFn))
	for _, a := range byFn {
		rows = append(rows, a)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].cycles != rows[j].cycles {
			return rows[i].cycles > rows[j].cycles
		}
		return rows[i].name < rows[j].name
	})
	fmt.Fprintf(w, "guest profile %s: %d cycles (pprof; run tables -prof on the JSONL export for source annotation)\n\n", path, total)
	fmt.Fprintf(w, "%-30s %12s %7s\n", "function", "cycles", "%")
	for _, a := range rows {
		fmt.Fprintf(w, "%-30s %12d %6.1f%%\n", a.name, a.cycles, pct(a.cycles, total))
	}
	fmt.Fprintf(w, "\nby state:\n")
	states := make([]string, 0, len(byState))
	for s := range byState {
		states = append(states, s)
	}
	sort.Strings(states)
	for _, s := range states {
		fmt.Fprintf(w, "  %-15s %12d %6.1f%%\n", s, byState[s], pct(byState[s], total))
	}
	return nil
}

func renderProfJSONL(w io.Writer, path string, data []byte, check bool) error {
	m, stateNames, src, err := prof.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if check {
		var peSum int64
		for _, r := range m.PEs {
			peSum += r.Total
		}
		if m.TotalCycles <= 0 || peSum != m.TotalCycles || len(m.Funcs) == 0 {
			return fmt.Errorf("%s: inconsistent profile (total=%d pe-sum=%d funcs=%d)",
				path, m.TotalCycles, peSum, len(m.Funcs))
		}
		fmt.Fprintf(w, "%s: profile ok: %d cycles over %d PEs, %d functions, %d hot words\n",
			path, m.TotalCycles, len(m.PEs), len(m.Funcs), len(m.Addrs))
		return nil
	}

	total := m.TotalCycles
	fmt.Fprintf(w, "guest profile %s: %d cycles across %d PEs\n\n", m.File, total, len(m.PEs))

	// Machine-wide state breakdown.
	var states [obs.NumProfStates]int64
	for _, r := range m.PEs {
		for s, v := range r.States {
			states[s] += v
		}
	}
	fmt.Fprintln(w, "where the cycles went:")
	for s, v := range states {
		if v == 0 {
			continue
		}
		name := fmt.Sprintf("state%d", s)
		if s < len(stateNames) {
			name = stateNames[s]
		}
		fmt.Fprintf(w, "  %-15s %12d %6.1f%%  %s\n", name, v, pct(v, total), profBar(v, total, 40))
	}

	fmt.Fprintln(w, "\nfunctions (cycles; flat = leaf pc in span, cum = plus callees):")
	fmt.Fprintf(w, "  %-28s %12s %7s %12s\n", "name", "flat", "%", "cum")
	for i, f := range m.Funcs {
		if i == 12 {
			fmt.Fprintf(w, "  ... %d more\n", len(m.Funcs)-i)
			break
		}
		fmt.Fprintf(w, "  %-28s %12d %6.1f%% %12d\n", f.Name, f.Flat, pct(f.Flat, total), f.Cum)
	}

	// Annotated source: per-line totals from the pc rows.
	if len(src) > 0 && len(m.PCs) > 0 {
		byLine := map[int]int64{}
		spin := map[int]int64{}
		for _, r := range m.PCs {
			byLine[r.Line] += r.Total
			spin[r.Line] += r.States[obs.ProfSpin]
		}
		fmt.Fprintln(w, "\nannotated source (cycles | spin | line):")
		for i, text := range src {
			ln := i + 1
			c, sp := byLine[ln], spin[ln]
			cc, ss := "", ""
			if c > 0 {
				cc = fmt.Sprintf("%d", c)
			}
			if sp > 0 {
				ss = fmt.Sprintf("%d", sp)
			}
			fmt.Fprintf(w, "  %10s %8s  %4d  %s\n", cc, ss, ln, text)
		}
	}

	if len(m.Addrs) > 0 {
		rows := append([]prof.AddrRow(nil), m.Addrs...)
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].Accesses > rows[j].Accesses })
		fmt.Fprintln(w, "\ncontention heatmap (hottest shared words):")
		fmt.Fprintf(w, "  %8s %4s %6s %10s %8s %8s %8s %10s\n",
			"addr", "mm", "word", "accesses", "rmw", "served", "combines", "wait")
		for i, r := range rows {
			if i == 10 {
				fmt.Fprintf(w, "  ... %d more\n", len(rows)-i)
				break
			}
			addr := fmt.Sprintf("%d", r.Addr)
			if r.Addr < 0 {
				addr = "?" // learned only from the MM/network side
			}
			fmt.Fprintf(w, "  %8s %4d %6d %10d %8d %8d %8d %10d\n",
				addr, r.MM, r.Word, r.Accesses, r.RMW, r.Served, r.Combines, r.WaitCycles)
		}
	}

	if len(m.Locks) > 0 {
		fmt.Fprintln(w, "\nlock/barrier wait distributions (per F&A cell, cycles):")
		fmt.Fprintf(w, "  %8s %8s %10s %6s %6s %6s\n", "addr", "n", "mean", "p50", "p90", "p99")
		for _, l := range m.Locks {
			fmt.Fprintf(w, "  %8d %8d %10.1f %6d %6d %6d\n", l.Addr, l.N, l.MeanWait, l.P50, l.P90, l.P99)
		}
	}

	for i, cp := range m.Paths {
		if i == 0 {
			fmt.Fprintln(w, "\ntop slow paths (longest dependent chain per combining tree):")
		}
		if i == 5 {
			fmt.Fprintf(w, "  ... %d more\n", len(m.Paths)-i)
			break
		}
		fmt.Fprintf(w, "  #%d  MM %d word %d: %d cycles over %d spans (chain depth %d)\n",
			i+1, cp.MM, cp.Word, cp.Latency, cp.TreeSpans, cp.Depth)
		for _, st := range cp.Steps {
			stage := "root"
			if st.CombineStage >= 0 {
				stage = fmt.Sprintf("combined@stage %d", st.CombineStage)
			}
			fmt.Fprintf(w, "      pe%-3d %-4s issue %-6d done %-6d lat %-5d wait %-5d %s\n",
				st.PE, st.Op, st.Issued, st.Done, st.Latency, st.WaitCycles, stage)
		}
	}
	return nil
}

func pct(v, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(v) / float64(total)
}

func profBar(v, total int64, width int) string {
	if total == 0 {
		return ""
	}
	n := int(int64(width) * v / total)
	return strings.Repeat("#", n)
}
