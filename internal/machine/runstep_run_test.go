package machine

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/sim"
)

// sweeps lists the stop cycles of each Run-driven twin of a run that
// ends at cycle end: staggered strides covering every cycle, or seeded
// points. Every twin's last stop is end, and one more twin runs the
// whole program in one call.
func (tc twinCase) sweeps(end int64) [][]int64 {
	var out [][]int64
	if tc.points == 0 {
		for o := int64(1); o <= runStrides; o++ {
			var s []int64
			for c := o; c < end; c += runStrides {
				s = append(s, c)
			}
			out = append(out, append(s, end))
		}
	} else {
		rng := sim.NewRand(uint64(end))
		set := map[int64]bool{}
		for len(set) < tc.points && int64(len(set)) < end-1 {
			set[1+int64(rng.Intn(int(end-1)))] = true
		}
		var s []int64
		for c := range set {
			s = append(s, c)
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		out = append(out, append(s, end))
	}
	return append(out, []int64{end})
}

// runTwins runs tc under cfg: one twin stepped cycle by cycle, the others
// driven by Run over the stop lists sweeps returns for the run's end
// cycle, each compared with the stepped twin at every stop. It returns
// the first difference.
func runTwins(t *testing.T, tc twinCase, cfg twinConfig, sweeps func(end int64) [][]int64) error {
	t.Helper()
	probe := tc.build(t, cfg)
	if _, done := probe.m.Run(twinLimit); !done {
		return fmt.Errorf("%s did not finish in %d cycles", tc.name, int64(twinLimit))
	}
	end := probe.m.Cycles()

	a := tc.build(t, cfg)
	stops := sweeps(end)
	bs := make([]*twin, len(stops))
	next := make([]int, len(stops))
	for j := range bs {
		bs[j] = tc.build(t, cfg)
	}
	compared := 0
	for a.m.Cycles() < end {
		a.m.Step()
		c := a.m.Cycles()
		for j, b := range bs {
			if next[j] >= len(stops[j]) || stops[j][next[j]] != c {
				continue
			}
			next[j]++
			b.m.Run(c)
			if d := tc.diffTwins(a, b); d != "" {
				return fmt.Errorf("twin %d stopped by Run(%d) differs from the stepped twin: %s", j, c, d)
			}
			compared++
		}
	}
	for j, b := range bs {
		// Past the end, Run must find the machine done and leave it.
		if _, done := b.m.Run(twinLimit); !done {
			return fmt.Errorf("twin %d: Run past the end reports not done", j)
		}
		if d := tc.diffTwins(a, b); d != "" {
			return fmt.Errorf("twin %d after Run past the end: %s", j, d)
		}
	}
	if compared == 0 || !a.m.Done() {
		return fmt.Errorf("%d stops compared; stepped twin done: %v", compared, a.m.Done())
	}
	return nil
}

// kernelSource is the benchmark's guest kernel (bench/testdata/spmd.s)
// with bench_test.go's constants and iters iterations.
func kernelSource(t testing.TB, iters int) string {
	t.Helper()
	tmpl, err := os.ReadFile("../../bench/testdata/spmd.s")
	if err != nil {
		t.Fatal(err)
	}
	return strings.NewReplacer(
		"{{ITERS}}", fmt.Sprint(iters), "{{MUL}}", "7", "{{ADD}}", "13", "{{COUNTER}}", "64",
		"{{SPAN}}", "128", "{{CBASE}}", "4096", "{{LMASK}}", "511", "{{CWORDS}}", "64",
		"{{PHASE}}", "5",
	).Replace(string(tmpl))
}

// twinCases is the referee's programs: the kernel on 8 PEs, every shipped
// example and every edge in testdata/run on 4 (an edge that caches gets a
// 1-set, 1-way cache).
func twinCases(t testing.TB) []twinCase {
	low := [][2]int64{{0, 1024}}
	cases := []twinCase{{
		name: "spmd.s", src: kernelSource(t, 140), pes: 8,
		cache: &cache.Config{Sets: 16, Ways: 2, BlockWords: 4},
		local: 512, shared: [][2]int64{{0, 128}, {4096, 4096 + 8*128}},
		cached: [2]int64{4096, 4096 + 8*128}, points: 64,
	}}
	for _, glob := range []string{"../../examples/asm/*.s", "testdata/run/*.s"} {
		files, err := filepath.Glob(glob)
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: %v (%d files)", glob, err, len(files))
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			tc := twinCase{name: filepath.Base(f), src: string(src), pes: 4, local: 64, shared: low}
			if strings.Contains(tc.src, "clds") {
				tc.cache = &cache.Config{Sets: 1, Ways: 1, BlockWords: 2}
				tc.cached = [2]int64{200, 200 + 4*64}
			}
			cases = append(cases, tc)
		}
	}
	return cases
}

// TestRunMatchesStep: Machine.Run(c) leaves the machine exactly where
// Step does, at every c, for the benchmark kernel, every shipped example
// and the edges of a private run in testdata/run, under every
// configuration.
func TestRunMatchesStep(t *testing.T) {
	for _, tc := range twinCases(t) {
		for _, cfg := range twinConfigs() {
			t.Run(tc.name+"/"+cfg.String(), func(t *testing.T) {
				if err := runTwins(t, tc, cfg, tc.sweeps); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
