package probegate_test

import (
	"testing"

	"ultracomputer/internal/lint/analysis/analysistest"
	"ultracomputer/internal/lint/probegate"
)

func TestProbegate(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), probegate.Analyzer, "probegate")
}

// TestTracegate runs the same analyzer over the request-tracer fixtures:
// its second rule.
func TestTracegate(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), probegate.Analyzer, "tracegate")
}

// TestGuardMutants runs the analyzer over copies of a PE and a cache
// emit site with the audience guard stripped: both must be flagged.
func TestGuardMutants(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), probegate.Analyzer, "guardmutants")
}
