package main

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sort"
	"strings"

	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/prof"
)

// runProf renders a guest profile's JSONL export (ultrasim -prof-out
// p.jsonl): where the cycles went, the function rollup, per-line source
// heat, the contention heatmap, lock waits and critical paths. The
// gzipped pprof export is stock go tool pprof's to read.
func runProf(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if bytes.HasPrefix(data, []byte{0x1f, 0x8b}) { // gzip: the pprof export
		return fmt.Errorf("%s is a pprof profile: read it with go tool pprof -top %s (or -tags for the by-state split)", path, path)
	}
	m, stateNames, src, err := prof.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
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
	// ReadJSONL holds 0 <= v <= total, so the bar fits in width; the
	// product takes 128 bits, as width·v can pass int64.
	hi, lo := bits.Mul64(uint64(width), uint64(v))
	n, _ := bits.Div64(hi, lo, uint64(total))
	return strings.Repeat("#", int(n))
}
