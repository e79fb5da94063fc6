package detstate_test

import (
	"testing"

	"ultracomputer/internal/lint/analysis/analysistest"
	"ultracomputer/internal/lint/detstate"
)

func TestDetstate(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), detstate.Analyzer, "detstate")
}

// TestStepMutants runs the analyzer over copies of memory.Module.Step
// and network.Stepper.Step with a map walk and a wall-clock read seeded
// in: both must be flagged.
func TestStepMutants(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), detstate.Analyzer, "stepmutants")
}
