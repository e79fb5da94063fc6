package hotalloc_test

import (
	"testing"

	"ultracomputer/internal/lint/analysis/analysistest"
	"ultracomputer/internal/lint/hotalloc"
)

func TestHotalloc(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), hotalloc.Analyzer, "hotalloc")
}

// TestAllocMutants runs the analyzer over a copy of the switch queue's
// push that makes its backing array per call and a phase body that
// builds a closure per unit: both must be flagged.
func TestAllocMutants(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), hotalloc.Analyzer, "allocmutants")
}
