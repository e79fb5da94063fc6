package lockcheck_test

import (
	"strings"
	"testing"

	"ultracomputer/internal/lint/analysis"
	"ultracomputer/internal/lint/analysis/analysistest"
	"ultracomputer/internal/lint/lockcheck"
)

func TestLockcheck(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lockcheck.Analyzer, "lockcheck")
}

// TestPR9Mutants re-runs the analyzer over the seeded reductions of the
// three PR 9 review bugs; the want comments in the fixtures pin each
// finding to its line.
func TestPR9Mutants(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lockcheck.Analyzer, "pr9mutants")
}

// TestProvingChains checks that unguarded-access findings carry the
// call chain that proves the unlocked route in.
func TestProvingChains(t *testing.T) {
	diags, err := analysis.RunProgram(lockcheck.Analyzer, analysistest.LoadProgram(t, analysistest.TestData(), "pr9mutants"))
	if err != nil {
		t.Fatal(err)
	}
	var rebuild []analysis.Diagnostic
	for _, d := range diags {
		if strings.Contains(d.Message, "(session).machine") {
			rebuild = append(rebuild, d)
		}
	}
	if len(rebuild) == 0 {
		t.Fatal("no finding for the unguarded machine rebuild")
	}
	for _, d := range rebuild {
		if !strings.Contains(d.Chain, "Configure") || !strings.Contains(d.Chain, "rebuild") {
			t.Errorf("chain %q does not prove the Configure → rebuild route", d.Chain)
		}
	}
}
