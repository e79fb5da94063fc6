package sharecheck_test

import (
	"testing"

	"ultracomputer/internal/lint/analysis/analysistest"
	"ultracomputer/internal/lint/sharecheck"
)

func TestSharecheck(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), sharecheck.Analyzer, "sharecheck", "phase")
}

// TestGoStmts runs the same analyzer over the goroutine-launch fixtures:
// its second rule.
func TestGoStmts(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), sharecheck.Analyzer, "gostmt")
}

// TestPhaseMutants runs the analyzer over two engine phase bodies with a
// package-level counter and a captured map written from every shard:
// both must be flagged.
func TestPhaseMutants(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), sharecheck.Analyzer, "phasemutants")
}
