package obs

// EventBuffer is an append-only Probe that holds events until DrainTo
// replays them, in emission order, into another probe. The parallel
// execution engine gives each shard-owned unit (a PE, a switch column,
// a memory module) its own buffer so workers never contend on the real
// probe; draining the buffers in unit order after each phase reproduces
// exactly the event sequence the serial engine emits inline.
//
// An EventBuffer is owned by one unit and must only be appended to by
// the worker currently executing that unit; DrainTo runs on the
// single coordinating goroutine between phases.
type EventBuffer struct {
	evs []Event
}

// Emit implements Probe by appending. The backing array is retained
// across drains, so steady-state emission does not allocate.
//
//ultravet:ok sharecheck each EventBuffer is owned by one shard unit (silent while Tracer.Emit's hop write stands for the summary key)
func (b *EventBuffer) Emit(ev Event) { b.evs = append(b.evs, ev) }

// Len reports the number of buffered events.
func (b *EventBuffer) Len() int { return len(b.evs) }

// DrainTo replays the buffered events into p in order and empties the
// buffer. A nil p discards them.
func (b *EventBuffer) DrainTo(p Probe) {
	if p != nil {
		for i := range b.evs {
			p.Emit(b.evs[i])
		}
	}
	b.evs = b.evs[:0]
}
