package detstate_test

import (
	"testing"

	"ultracomputer/internal/lint/analysis/analysistest"
	"ultracomputer/internal/lint/detstate"
)

func TestDetstate(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), detstate.Analyzer, "detstate")
}

// TestStepMutants runs the analyzer over copies of the guest profiler's
// serve count (reached from memory.Module.Step through the probe),
// network.Stepper.Step and machine.Machine.Step with a map walk, a
// wall-clock read and a goroutine per PE seeded in: all three must be
// flagged.
func TestStepMutants(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), detstate.Analyzer, "stepmutants")
}
