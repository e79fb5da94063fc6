package stepmutants

import "sync"

// core mirrors the PE a machine ticks.
type core struct{ retired int64 }

func (c *core) Tick(cycle int64) { c.retired += cycle & 1 }

// machine mirrors the fields of machine.Machine its Step reads.
type machine struct {
	pes   []*core
	cycle int64
}

// Step is machine.Machine.Step (internal/machine/machine.go) with the PE
// tick phase fanned out to one goroutine per PE: the PEs then tick in an
// order the scheduler picks, not in PE order.
func (m *machine) Step() {
	var wg sync.WaitGroup
	for _, p := range m.pes {
		wg.Add(1)
		go func() { // want `goroutine launched on a tick path \(reachable from Step\)`
			defer wg.Done()
			p.Tick(m.cycle)
		}()
	}
	wg.Wait()
	m.cycle++
}
