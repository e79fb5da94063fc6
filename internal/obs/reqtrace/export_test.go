package reqtrace

// ActiveSlots reports how many slots the tracer's active table has.
func ActiveSlots(t *Tracer) int { return t.active.Slots() }
