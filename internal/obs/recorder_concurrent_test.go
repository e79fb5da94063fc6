package obs

import (
	"sync"
	"testing"
)

// TestRecorderConcurrent hammers one Recorder from writer and reader
// goroutines simultaneously: a driver may read the ring from another
// goroutine while the simulation emits. Run under -race (make race does) this is the regression test for the
// Recorder's internal locking: before the mutex the ring indices tore
// and the race detector fired.
func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder(512)
	const (
		writers = 4
		readers = 4
		events  = 2000
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < events; i++ {
				rec.Emit(Event{Kind: KindInject, Cycle: int64(i), PE: int32(w)})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < events; i++ {
				switch i % 4 {
				case 0:
					rec.Overwritten()
				case 1:
					rec.Len()
				case 2:
					rec.Total()
				case 3:
					rec.Events()
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	if got, want := rec.Total(), int64(writers*events); got != want {
		t.Fatalf("Total() = %d after %d concurrent emits", got, want)
	}
	if rec.Len() != 512 {
		t.Fatalf("Len() = %d, want full ring of 512", rec.Len())
	}
	if evs := rec.Events(); len(evs) != 512 {
		t.Fatalf("Events() returned %d events", len(evs))
	}
	if got := rec.Overwritten(); got != int64(writers*events-512) {
		t.Fatalf("Overwritten() = %d, want %d", got, writers*events-512)
	}
}
