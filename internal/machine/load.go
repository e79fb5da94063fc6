package machine

import (
	"fmt"
	"strings"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/isa"
	"ultracomputer/internal/lint"
	"ultracomputer/internal/pe"
)

// LoadOptions configures Load's core construction and preflight checks.
type LoadOptions struct {
	// LocalWords is the private address space per PE in words (defaults
	// to 4096): the bound lw/sw are checked against. Its 512-word
	// (4 KiB) pages are allocated at the first store into each, so a PE
	// costs what its program stores, not this figure.
	LocalWords int
	// Cache, when non-nil, gives every core a private write-back cache
	// of this shape, enabling the clds/csts/cflu/crel instructions.
	Cache *cache.Config
	// Lint runs the guest lint (internal/lint) over the program before
	// building the machine; findings abort the load with a *LintError.
	Lint bool
}

// LintError reports guest-lint findings that aborted a Load. The program
// never ran: the findings describe coordination hazards visible
// statically.
type LintError struct {
	Findings []lint.Finding
}

func (e *LintError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "guest lint: %d finding(s):", len(e.Findings))
	for _, f := range e.Findings {
		fmt.Fprintf(&b, "\n  %s", f)
	}
	return b.String()
}

// Load assembles one core per PE running prog (SPMD) and builds the
// machine around them, optionally running the guest lint first. The
// returned cores alias the machine's and expose registers and cache
// state for result checking.
func Load(cfg Config, prog *isa.Program, opts LoadOptions) (*Machine, []*isa.Core, error) {
	progs := make([]*isa.Program, cfg.PEs)
	for i := range progs {
		progs[i] = prog
	}
	return LoadPrograms(cfg, progs, opts)
}

// LoadPrograms is Load with a distinct program per PE (MIMD);
// len(progs) must equal cfg.PEs.
func LoadPrograms(cfg Config, progs []*isa.Program, opts LoadOptions) (*Machine, []*isa.Core, error) {
	if len(progs) != cfg.PEs {
		return nil, nil, fmt.Errorf("machine.LoadPrograms: %d programs for %d PEs", len(progs), cfg.PEs)
	}
	if opts.LocalWords <= 0 {
		opts.LocalWords = 4096
	}
	if opts.Lint {
		if findings := lint.Programs(progs); len(findings) > 0 {
			return nil, nil, &LintError{Findings: findings}
		}
	}
	cores := make([]pe.Core, cfg.PEs)
	isaCores := make([]*isa.Core, cfg.PEs)
	for i := range cores {
		if opts.Cache != nil {
			isaCores[i] = isa.NewCoreWithCache(progs[i], opts.LocalWords, *opts.Cache)
		} else {
			isaCores[i] = isa.NewCore(progs[i], opts.LocalWords)
		}
		cores[i] = isaCores[i]
	}
	return New(cfg, cores), isaCores, nil
}
