package lint_test

// Cross-validation of the two guest analyzers: the coherence/race lint
// (heuristic, per-PE paths) and the bounded model checker (exhaustive,
// semantic) must agree on every fixture — or the disagreement must be a
// documented division of labor, pinned here so a regression in either
// tool shows up as a broken expectation rather than a silent gap.
//
// The division of labor this table encodes:
//
//   - Semantic bugs (a dropped release, swapped faa operands, a missing
//     recheck) deadlock or corrupt state without a single ill-formed
//     access pattern; only the model checker sees them.
//   - Benign races and multi-copy flush ordering violate no `;mc:`
//     property and lose no update under the checker's single-copy SC
//     memory; only the lint's pattern rules see them.
//   - Missing flushes sit in both tools' field of view: the lint as an
//     unflushed-write pattern, the checker as a stuck spin or a wrong
//     final state.

import (
	"os"
	"path/filepath"
	"testing"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/lint"
	"ultracomputer/internal/lint/guest/mc"
)

func TestLintAndModelCheckerAgree(t *testing.T) {
	cases := []struct {
		file string
		lint bool   // guest lint (2 PEs, 2 network copies) finds something
		mc   bool   // model checker (N=2) finds something
		why  string // the documented reason when the verdicts differ
	}{
		{"handoff.s", false, false, ""},
		{"handoff_noflush.s", true, true, ""},
		{"stale.s", true, true, ""},
		{"lateflush.s", true, false,
			"the checker models one memory copy, so release-before-flush cannot be observed; the lint's late-flush rule (Copies > 1) owns this bug"},
		{"racy.s", true, false,
			"a benign race loses no update and violates no declared property under SC; unordered access patterns are the lint's job"},
		{"barrier_dropped_release.s", false, true,
			"dropping the phase release is a semantic deadlock with perfectly well-formed accesses; only exhaustive search sees it"},
		{"barrier_off_by_one.s", false, true,
			"an off-by-one arrival target deadlocks with well-formed accesses; only exhaustive search sees it"},
		{"queue_faa_swapped.s", false, true,
			"swapped faa operands corrupt the ticket discipline, not the access patterns; only exhaustive search sees it"},
		{"queue_turn_off_by_one.s", false, true,
			"a missing turn increment stalls the phase protocol, not the access patterns; only exhaustive search sees it"},
		{"rw_no_recheck.s", false, true,
			"skipping the writer recheck breaks mutual exclusion through legitimate faa traffic; only exhaustive search sees it"},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := isa.Assemble(string(src))
			if err != nil {
				t.Fatal(err)
			}
			lintHit := len(lint.Program(prog, lint.Options{PEs: 2, Copies: 2})) > 0
			if lintHit != tc.lint {
				t.Errorf("guest lint findings = %v, table says %v", lintHit, tc.lint)
			}
			res, err := mc.CheckSource(string(src), mc.Options{PEs: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Exhausted {
				t.Fatal("state budget exhausted; no verdict")
			}
			mcHit := res.Violation != nil
			if mcHit != tc.mc {
				t.Errorf("model checker violation = %v, table says %v", mcHit, tc.mc)
			}
			if lintHit != mcHit && tc.why == "" {
				t.Errorf("verdicts disagree (lint %v, mc %v) with no documented reason", lintHit, mcHit)
			}
			if lintHit == mcHit && tc.why != "" {
				t.Errorf("verdicts agree but the table documents a discrepancy: %s", tc.why)
			}
		})
	}
}
