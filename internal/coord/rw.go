package coord

// RWLock is the readers–writers coordination of §2.3: during periods when
// no writers are active, readers execute no serial code at all — reader
// entry and exit are a fetch-and-add plus a check. Writers, inherently
// serial, use the TIR guard to admit one at a time and then drain the
// readers.
//
// Shared-memory layout at base:
//
//	base+0  R — active (or tentatively entering) readers
//	base+1  W — admitted writer count (0 or 1)
type RWLock struct {
	mem  Mem
	base int64
}

// NewRWLock lays out a readers–writers lock at base.
func NewRWLock(m Mem, base int64) *RWLock {
	m.Store(base, 0)
	m.Store(base+1, 0)
	return &RWLock{mem: m, base: base}
}

// AttachRWLock adopts a lock whose cells are already zero (fresh shared
// memory) without storing, so every PE may attach concurrently.
func AttachRWLock(m Mem, base int64) *RWLock {
	return &RWLock{mem: m, base: base}
}

func (l *RWLock) rAddr() int64 { return l.base }
func (l *RWLock) wAddr() int64 { return l.base + 1 }

// RLock admits a reader. With no writer active this is one fetch-and-add
// and one load — concurrent readers never serialize.
func (l *RWLock) RLock() {
	for {
		if l.mem.Load(l.wAddr()) == 0 {
			l.mem.FetchAdd(l.rAddr(), 1)
			if l.mem.Load(l.wAddr()) == 0 {
				return
			}
			// A writer arrived between the increment and the
			// recheck: back out and retry.
			l.mem.FetchAdd(l.rAddr(), -1)
		}
		l.mem.Pause()
	}
}

// RUnlock releases a reader.
func (l *RWLock) RUnlock() { l.mem.FetchAdd(l.rAddr(), -1) }

// Lock admits one writer: claim the writer slot, then wait for readers to
// drain.
func (l *RWLock) Lock() {
	for !TIR(l.mem, l.wAddr(), 1, 1) {
		l.mem.Pause()
	}
	for l.mem.Load(l.rAddr()) != 0 {
		l.mem.Pause()
	}
}

// Unlock releases the writer.
func (l *RWLock) Unlock() { l.mem.FetchAdd(l.wAddr(), -1) }
