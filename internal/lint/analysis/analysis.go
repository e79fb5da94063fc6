// Package analysis is a minimal, dependency-free analogue of
// golang.org/x/tools/go/analysis for ultravet's host analyzers: an
// Analyzer runs once over a Program — every loaded package, one call
// graph, per-function alias regions, the //ultravet:ok suppression table —
// and reports position-anchored diagnostics. The repo vendors no
// external modules, so the analyzers are written against this API.
package analysis

import (
	"fmt"
	"go/token"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, in //ultravet:ok
	// comments and on the ultravet command line.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// RunProgram applies the analyzer once to a whole Program,
	// reporting findings via pass.Report.
	RunProgram func(*ProgramPass) error
}

// Diagnostic is one finding. Chain, when set, is the call path from an
// analyzer's entry point to the function holding the flagged site.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	Chain   string
}

// ProgramPass is the view an Analyzer gets of the program.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	// Report delivers one diagnostic to the driver. Diagnostics whose
	// position carries an //ultravet:ok suppression for this analyzer
	// are filtered by the driver, not here.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos with a call chain
// (empty for a site that needs none).
func (p *ProgramPass) Reportf(pos token.Pos, chain string, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Chain: chain})
}

// RunProgram applies a to prog, dropping diagnostics suppressed by
// //ultravet:ok comments for this analyzer. The ultravet driver builds
// one Program over every package; analysistest builds one per fixture.
func RunProgram(a *Analyzer, prog *Program) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &ProgramPass{
		Analyzer: a,
		Prog:     prog,
		Report: func(d Diagnostic) {
			if prog.Suppressed(a.Name, d.Pos) {
				return
			}
			diags = append(diags, d)
		},
	}
	if err := a.RunProgram(pass); err != nil {
		return nil, fmt.Errorf("%s: %v", a.Name, err)
	}
	return diags, nil
}
