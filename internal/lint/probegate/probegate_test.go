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
