package ultracomputer

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/serve"
	"ultracomputer/internal/trace"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.golden")

// ledgerFile is the committed ledger: one line per op × counter.
const ledgerFile = "testdata/ledger.golden"

// ledgerRuns is how many times each op is measured after its warm-up.
const ledgerRuns = 3

// ledgerRow is one counter of one op.
type ledgerRow struct {
	op, counter string
	value       int64
}

// allocCounter reports whether a counter is an allocation count, which may
// fall and must not rise; every other counter is a simulated count, which
// must not move.
func allocCounter(counter string) bool { return counter == "objects" || counter == "bytes" }

// TestLedgerAllocBudget is the cost ledger: each root Benchmark*Op shape
// (net-uniform, net-hotspot, net-observed, guest-spmd, guest-ideal, the
// serve session, stepped to its halt without the scheduler), and Load of
// the 64-PE guest shape, run once after a warm-up op. Per op it records
// the objects and bytes the op allocated (runtime.MemStats deltas) and the
// simulated counts its Result or Report already holds. Every count is a
// function of the code, the config and the seed, so no host moves it: the
// test fails when an allocation count rises or a simulated count changes,
// and -update rewrites testdata/ledger.golden.
func TestLedgerAllocBudget(t *testing.T) {
	// No collection runs inside an op: a collection empties every
	// sync.Pool (encoding/json's and fmt's among them), and an op that
	// finds its pool empty allocates again, so the counts would follow
	// the collector's timing. The runtime's own growth in a young process
	// adds an object to the odd op, never takes one away, so each count is
	// the least of ledgerRuns ops.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var rows []ledgerRow
	for _, op := range ledgerOps(t) {
		runtime.GC()
		op.run() // warm-up: whatever is built once per process exists
		objects, nbytes := int64(math.MaxInt64), int64(math.MaxInt64)
		var counts []ledgerCount
		for range ledgerRuns {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			counts = op.run()
			runtime.ReadMemStats(&after)
			objects = min(objects, int64(after.Mallocs-before.Mallocs))
			nbytes = min(nbytes, int64(after.TotalAlloc-before.TotalAlloc))
		}
		rows = append(rows, ledgerRow{op.name, "objects", objects}, ledgerRow{op.name, "bytes", nbytes})
		for _, c := range counts {
			rows = append(rows, ledgerRow{op.name, c.counter, c.value})
		}
	}
	var got bytes.Buffer
	for _, r := range rows {
		fmt.Fprintf(&got, "%s %s %d\n", r.op, r.counter, r.value)
	}
	if *updateLedger {
		if err := os.MkdirAll(filepath.Dir(ledgerFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Logf("ledger:\n%s", got.String())
	want, err := readLedger(ledgerFile)
	if err != nil {
		t.Fatal(err)
	}
	// Under the race detector sync.Pool drops a random quarter of what is
	// put back, so only the simulated counts are held there.
	race := raceDetector()
	seen := map[string]bool{}
	for _, r := range rows {
		key := r.op + " " + r.counter
		seen[key] = true
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("%s = %d: no row in %s (run with -update)", key, r.value, ledgerFile)
		case allocCounter(r.counter) && r.value > w && !race:
			t.Errorf("%s rose: %d, ledger %d", key, r.value, w)
		case !allocCounter(r.counter) && r.value != w:
			t.Errorf("%s = %d, ledger %d: the simulation changed", key, r.value, w)
		}
	}
	for key := range want {
		if !seen[key] {
			t.Errorf("%s: ledger row no op produces (run with -update)", key)
		}
	}
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// readLedger parses a ledger file into its rows, keyed "op counter".
func readLedger(path string) (map[string]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rows := map[string]int64{}
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("%s:%d: want `op counter value`, got %q", path, i+1, line)
		}
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, i+1, err)
		}
		rows[f[0]+" "+f[1]] = v
	}
	return rows, nil
}

// ledgerCount is one simulated count an op reports.
type ledgerCount struct {
	counter string
	value   int64
}

// ledgerOp is one op of the ledger: run performs it and returns its
// simulated counts.
type ledgerOp struct {
	name string
	run  func() []ledgerCount
}

func ledgerOps(t *testing.T) []ledgerOp {
	net := func(w trace.Workload, observe func(*trace.Workload)) func() []ledgerCount {
		return func() []ledgerCount {
			if observe != nil {
				observe(&w)
			}
			r := netOpRun(6, w)
			return []ledgerCount{
				{"cycles", netWarmup + netMeasure}, {"offered", r.Offered},
				{"injected", r.Injected}, {"served", r.Served}, {"combines", r.Combines},
			}
		}
	}
	kernel := func(iters int) *isa.Program {
		prog, err := isa.Assemble(spmdKernel(t, iters))
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	guest := func(iters int, ideal bool) func() []ledgerCount {
		prog := kernel(iters)
		return func() []ledgerCount { return reportCounts(guestOpRun(t, prog, iters, ideal).Report()) }
	}
	load := kernel(64)
	return append([]ledgerOp{
		{"net-uniform", net(trace.Workload{}, nil)},
		{"net-hotspot", net(hotspotWorkload, nil)},
		{"net-observed", net(trace.Workload{}, observeNet(obs.NewRecorder(1<<16)))},
		{"guest-spmd", guest(64, false)},
		{"guest-ideal", guest(1024, true)},
		{"serve-session", serveSessionCounts(t)},
		{"load-64pe", func() []ledgerCount {
			guestLoad(t, load, false)
			return nil
		}},
	}, sweepOps()...)
}

// sweepOps are trace.Run ops the benchmark never runs: the net op's 64
// ports, hashing, seed and cycles, at loads from light to past
// saturation, on other switches, copies and traffic. What a run is told
// about its traffic before cycle 0 must pay off at every load, so their
// objects and bytes may only fall as the benchmark ops' may, and the
// simulated rows show that a change to what a run allocates leaves the
// traffic alone.
func sweepOps() []ledgerOp {
	k2 := network.Config{K: 2, Stages: 6, Copies: 1, Combining: true}
	k4 := network.Config{K: 4, Stages: 3, Copies: 1, Combining: true}
	copies2 := network.Config{K: 2, Stages: 6, Copies: 2, Combining: true}
	var ops []ledgerOp
	for _, s := range []struct {
		name string
		cfg  network.Config
		w    trace.Workload
		rate float64
	}{
		{"sweep-k2-uniform-p0.05", k2, trace.Workload{}, 0.05},
		{"sweep-k2-uniform-p0.3", k2, trace.Workload{}, 0.3},
		{"sweep-k2-uniform-p0.7", k2, trace.Workload{}, 0.7},
		{"sweep-k2-hotspot-p0.3", k2, hotspotWorkload, 0.3},
		{"sweep-k2-hotspot-p0.7", k2, hotspotWorkload, 0.7},
		{"sweep-k4-uniform-p0.3", k4, trace.Workload{}, 0.3},
		{"sweep-k2-copies2-p0.4", copies2, trace.Workload{}, 0.4},
		{"sweep-k2-bursty-p0.2", k2, trace.Workload{Burstiness: 50}, 0.2},
	} {
		w := s.w
		w.Rate, w.Hash, w.Seed = s.rate, true, 1001
		ops = append(ops, ledgerOp{s.name, func() []ledgerCount {
			r := trace.Run(s.cfg, w, netWarmup, netMeasure)
			return []ledgerCount{
				{"offered", r.Offered}, {"injected", r.Injected},
				{"served", r.Served}, {"combines", r.Combines},
			}
		}})
	}
	return ops
}

// reportCounts is the simulated counts of a guest run's Report.
func reportCounts(r machine.Report) []ledgerCount {
	return []ledgerCount{
		{"pe-cycles", r.PECyclesRun}, {"instructions", r.Instructions},
		{"idle-cycles", r.IdleCycles}, {"shared-refs", r.SharedRefs},
		{"injected", r.NetworkInjected}, {"combines", r.Combines}, {"mm-services", r.MMOpsServed},
	}
}

// serveSessionCounts is the serve session op stepped synchronously: create
// with the config staged, commit, StepCycles to the halt, fetch the
// report, delete. The benchmark's op starts the run on the scheduler and
// polls it, whose count of polls the host decides.
func serveSessionCounts(t *testing.T) func() []ledgerCount {
	cfg := serveOpConfig(t)
	svc := serve.NewService(serve.Limits{})
	t.Cleanup(svc.Drain)
	return func() []ledgerCount {
		s, err := svc.CreateSession(cfg.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.StageCandidate(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CommitCandidate(""); err != nil {
			t.Fatal(err)
		}
		if _, err := s.StepCycles(cfg.Limit); err != nil {
			t.Fatal(err)
		}
		info := s.Info()
		if info.State != serve.StateDone || !info.Halted {
			t.Fatalf("session ended %s (halted %v): %s", info.State, info.Halted, info.Error)
		}
		js, err := s.ReportJSON()
		if err != nil {
			t.Fatal(err)
		}
		var r machine.Report
		if err := json.Unmarshal(js, &r); err != nil {
			t.Fatal(err)
		}
		if err := svc.DeleteSession(s.ID()); err != nil {
			t.Fatal(err)
		}
		return append([]ledgerCount{{"cycles", info.Cycles}}, reportCounts(r)...)
	}
}
