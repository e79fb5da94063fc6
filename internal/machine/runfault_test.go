package machine

import (
	"fmt"
	"strings"
	"testing"

	"ultracomputer/internal/cache"
)

// faultSrc ends a private run with an out-of-range lw on PE 1 only.
const faultSrc = `
        rdpe r1
        li   r2, 0
        li   r3, 30
loop:   addi r2, r2, 1
        blt  r2, r3, loop
        li   r8, 1
        seq  r7, r1, r8
        li   r5, 1023
        add  r5, r5, r7
        lw   r6, 0(r5)
        halt
`

// cachedFaultSrc warms block 0 of the cache, then ends a private run
// with a clds at -5 on PE 1 only (the others hit block 0 again): a
// negative cached address, whose set index the cache's arithmetic makes
// negative.
const cachedFaultSrc = `
        clds r9, 0(r0)
        rdpe r1
        li   r2, 0
        li   r3, 30
loop:   addi r2, r2, 1
        blt  r2, r3, loop
        li   r8, 1
        seq  r7, r1, r8
        li   r5, -5
        mul  r5, r5, r7
        clds r6, 0(r5)
        halt
`

// TestRunFaultMatchesStep: a fault that ends a private run surfaces from
// Run at the cycle it surfaces from Step, with the same panic.
func TestRunFaultMatchesStep(t *testing.T) {
	cfg := cache.DefaultConfig
	for _, tc := range []struct {
		twinCase
		want string
	}{
		{twinCase{name: "lw", src: faultSrc, pes: 4, local: 1024}, "local address 1024 out of [0,1024)"},
		{twinCase{name: "clds", src: cachedFaultSrc, pes: 4, local: 16, cache: &cfg}, "out of range"},
	} {
		catch := func(m *Machine, drive func()) (cycle int64, msg string) {
			defer func() { cycle, msg = m.Cycles(), fmt.Sprint(recover()) }()
			drive()
			return
		}
		for _, cfg := range twinConfigs() {
			a, b := tc.build(t, cfg), tc.build(t, cfg)
			ca, pa := catch(a.m, func() {
				for a.m.Cycles() < twinLimit {
					a.m.Step()
				}
			})
			cb, pb := catch(b.m, func() { b.m.Run(twinLimit) })
			if !strings.Contains(pa, tc.want) || ca != cb || pa != pb {
				t.Fatalf("%s %v: stepped faults at cycle %d with %q, Run at cycle %d with %q", tc.name, cfg, ca, pa, cb, pb)
			}
		}
	}
}
