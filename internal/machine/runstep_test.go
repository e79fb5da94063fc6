package machine

import (
	"fmt"
	"testing"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/isa"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/prof"
)

// The referee of Machine.Run: a machine driven by Run(c) must stand, at
// every c it returns at, exactly where a twin driven by Step alone
// stands — cycle counters, report, every PE's Stats, every core's
// registers, pc and private words, cache contents and counters, shared
// memory and the sampler's series.

// twinCase is one program of the referee and the state its comparison
// reads.
type twinCase struct {
	name   string
	src    string
	pes    int
	cache  *cache.Config
	local  int        // private words [0, local) of every core
	shared [][2]int64 // shared words, half-open ranges
	cached [2]int64   // cache.Contains over this range, on every core
	// points > 0 stops the Run-driven twin at that many seeded cycles
	// (and at the end); 0 stops it at every cycle, spread over
	// runStrides staggered twins so that each Run call spans several
	// cycles.
	points int
}

// twinConfig is one machine configuration the referee runs every
// program under.
type twinConfig struct {
	ideal   bool
	maxOut  int
	peCycle int64
	sampled bool
}

func (c twinConfig) String() string {
	return fmt.Sprintf("ideal=%v/out%d/pec%d/sampled=%v", c.ideal, c.maxOut, c.peCycle, c.sampled)
}

// twinConfigs is every configuration of the referee: real and ideal
// memory, the default register-locking depth and a depth of one (every
// shared request after the first waits in the PNI for its reply),
// PECycle 1 and 2, with and without a sampler.
func twinConfigs() []twinConfig {
	var out []twinConfig
	for _, ideal := range []bool{false, true} {
		for _, maxOut := range []int{12, 1} {
			for _, pec := range []int64{1, 2} {
				for _, sampled := range []bool{false, true} {
					out = append(out, twinConfig{ideal, maxOut, pec, sampled})
				}
			}
		}
	}
	return out
}

const (
	twinLimit  = 2_000_000
	runStrides = 6
)

// twin is one machine of a comparison.
type twin struct {
	m     *Machine
	cores []*isa.Core
	seen  int // sampler snapshots already compared
}

func (tc twinCase) build(t testing.TB, cfg twinConfig) *twin {
	t.Helper()
	prog, err := isa.Assemble(tc.src)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	stages := 1
	for 1<<stages < tc.pes {
		stages++
	}
	m, cores, err := Load(Config{
		Net:     network.Config{K: 2, Stages: stages, Combining: true},
		PEs:     tc.pes,
		Hashing: true, IdealMemory: cfg.ideal, PECycle: cfg.peCycle,
		MaxOutstanding: cfg.maxOut,
	}, prog, LoadOptions{LocalWords: tc.local, Cache: tc.cache})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.sampled {
		m.Observe(prof.Observers{Sampler: obs.NewSampler(7)})
	}
	return &twin{m: m, cores: cores}
}
