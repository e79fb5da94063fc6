package phase

import "ultracomputer/internal/engine"

// Phase literals handed to engine.Engine.Run are the shard-isolation roots:
// the shard-ownership rules apply to everything they capture.

type driver struct {
	eng    engine.Engine
	shared map[int]int
	slots  []int
	ch     chan int
	count  int
}

// hoisted stores its phase body in a field once (the zero-alloc idiom)
// and passes it to the engine by name every cycle: the literal is still
// a root via the one-step dataflow in EnginePhaseLiterals.
type hoisted struct {
	eng  engine.Engine
	body func(lo, hi, w int)
	m    map[int]int
}

func (h *hoisted) init() {
	h.body = func(lo, hi, w int) {
		h.m[lo] = hi // want `write into shared map h.m`
	}
}

func (h *hoisted) Step() {
	if h.body == nil {
		h.init()
	}
	h.eng.Run(4, h.body)
}

func (d *driver) Step() {
	m := d.shared
	slots := d.slots
	ch := d.ch
	total := 0
	d.eng.Run(len(slots), func(lo, hi, w int) {
		// A basic value copied out of captured state is a fresh local:
		// rebinding it is not a shared write.
		rate := d.count
		rate = rate * 2
		_ = rate
		for i := lo; i < hi; i++ {
			slots[i]++ // per-unit scratch, indexed by the unit id: allowed
			m[i] = i   // want `write into shared map m`
			ch <- i    // want `send on shared channel ch`
			total++    // want `rebind of captured variable total`
		}
	})
	d.count = total
}
