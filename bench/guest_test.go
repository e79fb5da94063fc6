package main

import (
	"bytes"
	"testing"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
)

// smallMachine loads the kernel on a 4-PE machine (k=2, 2 stages).
func smallMachine(t *testing.T, k kernel, ideal bool) *machine.Machine {
	t.Helper()
	prog, err := isa.Assemble(k.text())
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Config{
		Net: network.Config{K: 2, Stages: 2, Copies: 1, Combining: true},
		PEs: 4, Hashing: true, IdealMemory: ideal,
	}
	m, _, err := machine.Load(cfg, prog, machine.LoadOptions{Cache: &guestCache})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The phase engine names Machine.Step's eng.Run calls by their order in
// the cycle. On a 4-PE machine: every cycle has a machine.step span
// whose children are memory.step then machine.deliver, plus pe.tick on
// PE cycles (every second network cycle); under IdealMemory only the
// tick. And a run through it reports byte for byte what engine.Serial
// reports.
func TestPhaseEngineAttribution(t *testing.T) {
	k := drawKernel(goldenSeed, 70)
	for _, ideal := range []bool{false, true} {
		ref := smallMachine(t, k, ideal)
		if _, done := ref.Run(guestLimit); !done {
			t.Fatal("reference run did not halt")
		}
		want, err := ref.Report().JSON()
		if err != nil {
			t.Fatal(err)
		}

		m := smallMachine(t, k, ideal)
		sp := newSpanRec()
		done, calls := stepped(m, sp, -1, ideal)
		if !done {
			t.Fatal("stepped run did not halt")
		}
		got, err := m.Report().JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || m.Cycles() != ref.Cycles() {
			t.Errorf("ideal=%v: stepped run differs from engine.Serial (%d vs %d cycles)", ideal, m.Cycles(), ref.Cycles())
		}
		if err := k.check(m); err != nil {
			t.Errorf("ideal=%v: %v", ideal, err)
		}

		// Walk the spans cycle by cycle.
		var steps, ticks, phases int64
		var children []string
		flush := func() {
			if steps == 0 {
				return
			}
			wantKids := []string{spMMStep, spDeliver}
			if ideal {
				wantKids = nil
			}
			if (steps-1)%2 == 0 { // cycle numbers start at 0; PECycle is 2
				wantKids = append(wantKids, spTick)
			}
			if len(children) != len(wantKids) {
				t.Fatalf("ideal=%v cycle %d: phases %v, want %v", ideal, steps-1, children, wantKids)
			}
			for i := range wantKids {
				if children[i] != wantKids[i] {
					t.Fatalf("ideal=%v cycle %d: phases %v, want %v", ideal, steps-1, children, wantKids)
				}
			}
			children = children[:0]
		}
		var cur int32 = -1
		for i, s := range sp.spans {
			if s.Name == spStep {
				flush()
				steps++
				cur = int32(i)
				continue
			}
			if s.Parent != cur {
				t.Fatalf("span %d (%s) has parent %d, want the cycle's machine.step span %d", i, s.Name, s.Parent, cur)
			}
			if s.Name == spTick {
				ticks++
			}
			phases++
			children = append(children, s.Name)
		}
		flush()
		if steps != m.Cycles() || ticks != m.PECycles() || phases != calls {
			t.Errorf("ideal=%v: %d step spans for %d cycles, %d tick spans for %d PE cycles, %d phase spans for %d eng.Run calls",
				ideal, steps, m.Cycles(), ticks, m.PECycles(), phases, calls)
		}
	}
}

// The kernel's outcome check must notice a wrong memory image.
func TestKernelCheckCatchesCorruption(t *testing.T) {
	k := drawKernel(3, 70)
	m := smallMachine(t, k, false)
	if _, done := m.Run(guestLimit); !done {
		t.Fatal("run did not halt")
	}
	if err := k.check(m); err != nil {
		t.Fatal(err)
	}
	m.WriteShared(k.CBase+guestSpan+1, -1)
	if err := k.check(m); err == nil {
		t.Error("check passed on a corrupted region word")
	}
}
