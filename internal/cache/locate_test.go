package cache

import (
	"math"
	"testing"

	"ultracomputer/internal/sim"
)

// TestLocateMatchesDivision: locate and Block split an address with a
// shift and a mask; on every shape Validate admits and on addresses of
// either sign they agree with the division they replace.
func TestLocateMatchesDivision(t *testing.T) {
	rng := sim.NewRand(29)
	addrs := []int64{0, 1, -1, 3, -4, 63, -64, math.MaxInt64, math.MinInt64}
	for i := 0; i < 4000; i++ {
		a := int64(rng.Uint64() >> uint(rng.Intn(64)))
		if rng.Intn(2) == 0 {
			a = -a
		}
		addrs = append(addrs, a)
	}
	for _, sets := range []int{1, 2, 16, 64, 1024} {
		for _, bw := range []int{1, 2, 4, 8, 64} {
			c := New(Config{Sets: sets, Ways: 1, BlockWords: bw})
			for _, a := range addrs {
				block := a / int64(bw)
				wantSet, wantTag, wantOff := int(block%int64(sets)), block/int64(sets), int(a%int64(bw))
				if set, tag, off := c.locate(a); set != wantSet || tag != wantTag || off != wantOff {
					t.Fatalf("%d sets × %d words: locate(%d) = (%d, %d, %d), division says (%d, %d, %d)",
						sets, bw, a, set, tag, off, wantSet, wantTag, wantOff)
				}
				if got, want := c.Block(a), block*int64(bw); got != want {
					t.Fatalf("%d sets × %d words: Block(%d) = %d, division says %d", sets, bw, a, got, want)
				}
			}
		}
	}
}
