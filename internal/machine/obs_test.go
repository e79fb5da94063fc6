package machine

import (
	"bytes"
	"encoding/json"
	"testing"

	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/pe"
)

// hotSpotMachine builds a small combining machine where every PE
// hammers one shared word with fetch-and-adds — the workload that
// exercises every event source: injection, hops, combining, MNI
// service, decombining, reply delivery and stalls.
func hotSpotMachine(t *testing.T) (*Machine, *obs.Recorder, *obs.Sampler) {
	t.Helper()
	const (
		pes    = 8
		rounds = 50
		hot    = int64(7)
	)
	m := SPMD(Config{
		Net:     network.Config{K: 2, Stages: 3, Combining: true},
		Hashing: true,
	}, pes, func(ctx *pe.Ctx) {
		for i := 0; i < rounds; i++ {
			ctx.FetchAdd(hot, 1)
		}
	})
	rec := obs.NewRecorder(1 << 16)
	s := obs.NewSampler(16)
	m.Observe(prof.Observers{Probe: rec, Sampler: s})
	m.MustRun(1_000_000)
	return m, rec, s
}

func TestObservedHotSpotLifecycle(t *testing.T) {
	m, rec, s := hotSpotMachine(t)
	rep := m.Report()

	byKind := make(map[obs.Kind][]obs.Event)
	for _, ev := range rec.Events() {
		byKind[ev.Kind] = append(byKind[ev.Kind], ev)
	}
	for _, k := range []obs.Kind{
		obs.KindInject, obs.KindStageArrive, obs.KindMMArrive,
		obs.KindMNIBegin, obs.KindMNIServe, obs.KindReplyDeliver,
	} {
		if len(byKind[k]) == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
	if int64(len(byKind[obs.KindInject])) != rep.NetworkInjected {
		t.Errorf("inject events = %d, network counted %d",
			len(byKind[obs.KindInject]), rep.NetworkInjected)
	}
	if rep.Combines == 0 {
		t.Fatalf("hot-spot run produced no combines; events are untestable")
	}
	if int64(len(byKind[obs.KindCombine])) != rep.Combines {
		t.Errorf("combine events = %d, network counted %d",
			len(byKind[obs.KindCombine]), rep.Combines)
	}
	if len(byKind[obs.KindDecombine]) != len(byKind[obs.KindCombine]) {
		t.Errorf("decombines = %d, combines = %d; every combined pair must split on return",
			len(byKind[obs.KindDecombine]), len(byKind[obs.KindCombine]))
	}
	// Every PE's requests return: one delivery per value-returning issue.
	if int64(len(byKind[obs.KindReplyDeliver])) != rep.SharedLoads {
		t.Errorf("deliveries = %d, shared loads = %d",
			len(byKind[obs.KindReplyDeliver]), rep.SharedLoads)
	}

	// One delivered request's lifecycle must be time-ordered.
	id := byKind[obs.KindReplyDeliver][0].ID
	var last int64 = -1
	for _, ev := range rec.Events() {
		if ev.ID != id || ev.Cycle < 0 {
			continue
		}
		if ev.Cycle < last {
			t.Fatalf("request %d events out of order: %v after cycle %d", id, ev, last)
		}
		last = ev.Cycle
	}

	// Stall attribution partitions idle cycles exactly.
	if got := rep.IdleMemory + rep.IdleNetFull + rep.IdlePipeline; got != rep.IdleCycles {
		t.Errorf("stall buckets sum to %d, idle cycles = %d", got, rep.IdleCycles)
	}
	if rep.IdleMemory == 0 {
		t.Errorf("blocking fetch-adds must stall on memory at least once")
	}

	// Sampler recorded a time series with traffic in it.
	snaps := s.Snapshots()
	if len(snaps) < 2 {
		t.Fatalf("sampler recorded %d snapshots", len(snaps))
	}
	final := snaps[len(snaps)-1]
	if final.Injected == 0 || final.MMServed == 0 {
		t.Errorf("final snapshot saw no traffic: %+v", final)
	}
	if len(final.StageQueueOcc) != 3 {
		t.Errorf("snapshot covers %d stages, want 3", len(final.StageQueueOcc))
	}
}

func TestChromeExportSharesMNISpan(t *testing.T) {
	_, rec, _ := hotSpotMachine(t)
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v", err)
	}
	shared := 0
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" || ev.PID != 3 {
			continue
		}
		if list, ok := ev.Args["serves"].([]any); ok && len(list) >= 2 {
			shared++
		}
	}
	if shared == 0 {
		t.Errorf("no MNI span serves multiple combined origins")
	}
}

func TestReportJSONAndDelta(t *testing.T) {
	m, _, _ := hotSpotMachine(t)
	rep := m.Report()

	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("Report JSON does not round-trip: %v", err)
	}
	if back != rep {
		t.Errorf("round-tripped report differs:\n got %+v\nwant %+v", back, rep)
	}

	// Delta against the zero report reproduces the cumulative counters.
	d := rep.Delta(Report{PEs: rep.PEs})
	if d.Instructions != rep.Instructions || d.Combines != rep.Combines ||
		d.CMAccessSamples != rep.CMAccessSamples {
		t.Errorf("Delta(zero) changed counters: %+v", d)
	}
	if d.AvgCMAccess != rep.AvgCMAccess {
		t.Errorf("Delta(zero) AvgCMAccess = %v, want %v", d.AvgCMAccess, rep.AvgCMAccess)
	}
	// Delta against itself zeroes every counter and interval ratio.
	z := rep.Delta(rep)
	if z.Instructions != 0 || z.IdleCycles != 0 || z.NetworkInjected != 0 ||
		z.AvgCMAccess != 0 || z.IdleFrac != 0 || z.MemRefPerInstr != 0 {
		t.Errorf("Delta(self) nonzero: %+v", z)
	}
	// Quantiles are cumulative and carry through.
	if z.CMAccessP95 != rep.CMAccessP95 || z.CMAccessP50 != rep.CMAccessP50 {
		t.Errorf("Delta must keep cumulative quantiles")
	}
}

func TestProbeOffMatchesProbeOn(t *testing.T) {
	run := func(instrument bool) Report {
		m := SPMD(Config{
			Net:     network.Config{K: 2, Stages: 3, Combining: true},
			Hashing: true,
		}, 4, func(ctx *pe.Ctx) {
			for i := 0; i < 20; i++ {
				ctx.FetchAdd(3, 1)
				ctx.Compute(2)
			}
		})
		if instrument {
			m.Observe(prof.Observers{Probe: obs.NewRecorder(1 << 12), Sampler: obs.NewSampler(8)})
		}
		m.MustRun(1_000_000)
		return m.Report()
	}
	if off, on := run(false), run(true); off != on {
		t.Errorf("instrumentation changed the simulation:\n off %+v\n on  %+v", off, on)
	}
}
