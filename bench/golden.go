package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// goldenSeed is the seed whose simulated outcome golden.json pins. The
// warm-up op of every set-up runs it, whatever -seed says, so every run
// of the benchmark checks that the modelled machine still computes what
// it computed when the benchmark was defined: a change meant only to
// speed the simulator must leave these bit-identical.
const goldenSeed = 17

const goldenPath = "bench/golden.json"

//go:embed golden.json
var goldenJSON []byte

// golden is the pinned simulated outcome of each simulator workload's
// op at goldenSeed.
type golden struct {
	Seed  uint64              `json:"seed"`
	Net   map[string]netSim   `json:"net"`
	Guest map[string]guestSim `json:"guest"`

	update bool // -update-golden: record instead of compare
}

func loadGolden(update bool) (*golden, error) {
	g := &golden{update: update}
	if update {
		g.Seed, g.Net, g.Guest = goldenSeed, map[string]netSim{}, map[string]guestSim{}
		return g, nil
	}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	if g.Seed != goldenSeed {
		return nil, fmt.Errorf("%s pins seed %d, the benchmark runs seed %d", goldenPath, g.Seed, goldenSeed)
	}
	return g, nil
}

// checkPinned compares one workload's outcome at goldenSeed with its
// pinned value, or records it under -update-golden.
func checkPinned[T comparable](update bool, pinned map[string]T, name string, got T) error {
	if update {
		pinned[name] = got
		return nil
	}
	want, ok := pinned[name]
	if !ok {
		return fmt.Errorf("%s has no entry for %s (run -update-golden)", goldenPath, name)
	}
	if got != want {
		return fmt.Errorf("%s: simulated outcome at seed %d differs from %s:\n got  %+v\n want %+v", name, goldenSeed, goldenPath, got, want)
	}
	return nil
}

// write regenerates golden.json from the outcomes recorded this run.
func (g *golden) write() error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}
