package machine

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Report aggregates the measurements of Table 1 (§4.2) over a finished
// run: central-memory access time, PE idle behavior, and reference rates.
type Report struct {
	PEs          int   `json:"pes"`
	PECyclesRun  int64 `json:"pe_cycles"`
	Instructions int64 `json:"instructions"`
	IdleCycles   int64 `json:"idle_cycles"`
	LocalRefs    int64 `json:"local_refs"`
	SharedRefs   int64 `json:"shared_refs"`
	SharedLoads  int64 `json:"shared_loads"`

	// AvgCMAccess is the mean issue-to-completion time of shared
	// requests, in PE instruction times (Table 1 column 1).
	AvgCMAccess float64 `json:"avg_cm_access"`
	// CMAccessP50/P95/P99 are quantiles of the same distribution — tail
	// latency the mean hides under congestion. When CMAccessOverflow is
	// nonzero, samples beyond the histogram cap were recorded and any
	// quantile that lands in the overflow bucket is a lower bound.
	CMAccessP50 float64 `json:"cm_access_p50"`
	CMAccessP95 float64 `json:"cm_access_p95"`
	CMAccessP99 float64 `json:"cm_access_p99"`
	// CMAccessOverflow counts access-time samples at or above the
	// histogram cap; CMAccessSamples counts all samples.
	CMAccessOverflow int64 `json:"cm_access_overflow"`
	CMAccessSamples  int64 `json:"cm_access_samples"`
	// IdleFrac is the fraction of PE cycles lost waiting (column 2).
	IdleFrac float64 `json:"idle_frac"`
	// IdlePerCMLoad is idle cycles per value-returning central-memory
	// request (column 3); prefetch pushes it below AvgCMAccess.
	IdlePerCMLoad float64 `json:"idle_per_cm_load"`
	// MemRefPerInstr counts data-memory references (private + shared)
	// per instruction (column 4).
	MemRefPerInstr float64 `json:"mem_ref_per_instr"`
	// SharedRefPerInstr counts central-memory references per
	// instruction (column 5).
	SharedRefPerInstr float64 `json:"shared_ref_per_instr"`

	// Stall attribution: idle PE cycles broken down by cause.
	IdleMemory   int64 `json:"idle_memory"`   // locked register / fence
	IdleNetFull  int64 `json:"idle_net_full"` // network refused injection
	IdlePipeline int64 `json:"idle_pipeline"` // PNI pipelining rules

	// Network-side totals.
	NetworkInjected int64 `json:"network_injected"`
	Combines        int64 `json:"combines"`
	MMOpsServed     int64 `json:"mm_ops_served"`
}

// Report computes the run's aggregate measurements.
func (m *Machine) Report() Report {
	r := Report{PEs: len(m.pes), PECyclesRun: m.peCycles}
	var cmWaitSum float64
	var cmWaitN int64
	for _, p := range m.pes {
		s := p.Stats()
		r.Instructions += s.Instructions.Value()
		r.IdleCycles += s.IdleCycles.Value()
		r.LocalRefs += s.LocalRefs.Value()
		r.SharedRefs += s.SharedRefs.Value()
		r.SharedLoads += s.SharedLoads.Value()
		r.IdleMemory += s.IdleMemory.Value()
		r.IdleNetFull += s.IdleNetFull.Value()
		r.IdlePipeline += s.IdlePipeline.Value()
		cmWaitSum += s.CMWait.Value() * float64(s.CMWait.N())
		cmWaitN += s.CMWait.N()
	}
	r.CMAccessSamples = cmWaitN
	r.CMAccessOverflow = m.cmWait.Overflow()
	if cmWaitN > 0 {
		r.AvgCMAccess = cmWaitSum / float64(cmWaitN)
		r.CMAccessP50 = float64(m.cmWait.Quantile(0.50))
		r.CMAccessP95 = float64(m.cmWait.Quantile(0.95))
		r.CMAccessP99 = float64(m.cmWait.Quantile(0.99))
	}
	if total := r.Instructions + r.IdleCycles; total > 0 {
		r.IdleFrac = float64(r.IdleCycles) / float64(total)
	}
	if r.SharedLoads > 0 {
		r.IdlePerCMLoad = float64(r.IdleCycles) / float64(r.SharedLoads)
	}
	if r.Instructions > 0 {
		r.MemRefPerInstr = float64(r.LocalRefs+r.SharedRefs) / float64(r.Instructions)
		r.SharedRefPerInstr = float64(r.SharedRefs) / float64(r.Instructions)
	}
	ns := m.net.Stats()
	r.NetworkInjected = ns.Injected.Value()
	r.Combines = ns.Combines.Value()
	r.MMOpsServed = m.bank.TotalServed()
	return r
}

// JSON renders the report as indented JSON — the single serialization
// path shared by cmd/tables and the metrics exporter.
func (r Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Delta returns the measurements accumulated since prev was taken from
// the same machine: counters are subtracted and the derived ratios are
// recomputed over the interval. The quantile fields (CMAccessP50/95/99
// and CMAccessOverflow) cannot be differenced — histograms are
// cumulative — so they carry the current (cumulative) values.
func (r Report) Delta(prev Report) Report {
	d := r // quantiles and PEs carry over
	d.PECyclesRun = r.PECyclesRun - prev.PECyclesRun
	d.Instructions = r.Instructions - prev.Instructions
	d.IdleCycles = r.IdleCycles - prev.IdleCycles
	d.LocalRefs = r.LocalRefs - prev.LocalRefs
	d.SharedRefs = r.SharedRefs - prev.SharedRefs
	d.SharedLoads = r.SharedLoads - prev.SharedLoads
	d.IdleMemory = r.IdleMemory - prev.IdleMemory
	d.IdleNetFull = r.IdleNetFull - prev.IdleNetFull
	d.IdlePipeline = r.IdlePipeline - prev.IdlePipeline
	d.NetworkInjected = r.NetworkInjected - prev.NetworkInjected
	d.Combines = r.Combines - prev.Combines
	d.MMOpsServed = r.MMOpsServed - prev.MMOpsServed
	d.CMAccessSamples = r.CMAccessSamples - prev.CMAccessSamples

	// Interval mean from the two cumulative means: sum = mean × n.
	d.AvgCMAccess = 0
	if d.CMAccessSamples > 0 {
		sum := r.AvgCMAccess*float64(r.CMAccessSamples) -
			prev.AvgCMAccess*float64(prev.CMAccessSamples)
		d.AvgCMAccess = sum / float64(d.CMAccessSamples)
	}
	d.IdleFrac = 0
	if total := d.Instructions + d.IdleCycles; total > 0 {
		d.IdleFrac = float64(d.IdleCycles) / float64(total)
	}
	d.IdlePerCMLoad = 0
	if d.SharedLoads > 0 {
		d.IdlePerCMLoad = float64(d.IdleCycles) / float64(d.SharedLoads)
	}
	d.MemRefPerInstr = 0
	d.SharedRefPerInstr = 0
	if d.Instructions > 0 {
		d.MemRefPerInstr = float64(d.LocalRefs+d.SharedRefs) / float64(d.Instructions)
		d.SharedRefPerInstr = float64(d.SharedRefs) / float64(d.Instructions)
	}
	return d
}

// String renders the report as one Table 1 row plus network totals.
func (r Report) String() string {
	// Quantiles that may sit in the histogram's overflow bucket are only
	// lower bounds; mark them.
	bound := ""
	if r.CMAccessOverflow > 0 {
		bound = ">="
	}
	var b strings.Builder
	fmt.Fprintf(&b, "PEs=%d cycles=%d instr=%d\n", r.PEs, r.PECyclesRun, r.Instructions)
	fmt.Fprintf(&b, "avg CM access time      %8.2f PE instr times (p50 %.0f p95 %s%.0f p99 %s%.0f)\n",
		r.AvgCMAccess, r.CMAccessP50, bound, r.CMAccessP95, bound, r.CMAccessP99)
	if r.CMAccessOverflow > 0 {
		fmt.Fprintf(&b, "  (%d of %d access-time samples beyond histogram cap)\n",
			r.CMAccessOverflow, r.CMAccessSamples)
	}
	fmt.Fprintf(&b, "idle cycles             %8.0f%%\n", r.IdleFrac*100)
	fmt.Fprintf(&b, "idle cycles per CM load %8.2f\n", r.IdlePerCMLoad)
	fmt.Fprintf(&b, "memory ref per instr    %8.2f\n", r.MemRefPerInstr)
	fmt.Fprintf(&b, "shared ref per instr    %8.2f\n", r.SharedRefPerInstr)
	if idle := r.IdleMemory + r.IdleNetFull + r.IdlePipeline; idle > 0 {
		fmt.Fprintf(&b, "stalls: memory=%d (%.0f%%) net-full=%d (%.0f%%) pipeline=%d (%.0f%%)\n",
			r.IdleMemory, 100*float64(r.IdleMemory)/float64(idle),
			r.IdleNetFull, 100*float64(r.IdleNetFull)/float64(idle),
			r.IdlePipeline, 100*float64(r.IdlePipeline)/float64(idle))
	}
	fmt.Fprintf(&b, "network: injected=%d combines=%d mmOps=%d\n",
		r.NetworkInjected, r.Combines, r.MMOpsServed)
	return b.String()
}
