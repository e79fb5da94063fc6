// Command ultravet is the repository's static-analysis suite. It has two
// halves, selected by the kind of argument:
//
// Go packages (directories, or the literal ./... to expand the module)
// run the host-side analyzers over the simulator's own sources. All four
// run once over one module-wide program (internal/lint/analysis): every
// package, one call graph, interprocedural write-set summaries, and the
// cycle roots declared in analysis/roots.go — functions and methods
// named Tick, Step or Collect plus the function literals handed to an
// engine.Engine as phase units:
//
//	detstate   forbid wall-clock reads, global math/rand and unordered
//	           map iteration in functions reachable, inside their
//	           package, from the cycle roots, and goroutine launches in
//	           any function reachable from them
//	probegate  require every obs.Probe Emit call site to be guarded by
//	           a nil check of the probe or by a non-zero obs.Subs.For
//	           audience (the zero-alloc contract), and every reqtrace
//	           sampling call site (ContextFor, Emit) by a nil check of
//	           the tracer
//	hotalloc   flag heap-allocation sites reachable from the cycle roots
//	lockcheck  enforce declared lock discipline (`// guarded by mu` field
//	           comments): guarded-field access without the protecting
//	           mutex — with the proving call chain — plus mixed
//	           plain/atomic access, lock-order cycles, and stale
//	           condition re-checks after a guarded clear
//
// Assembly files (*.s) run through two guest analyzers:
//
//	guest    the coherence/race lint (internal/lint): cross-PE race,
//	         stale cached read, unflushed cached write and — with
//	         -copies > 1 — late-flush checks over the program each of
//	         -pes PEs would execute
//	guestmc  the bounded model checker (internal/lint/guest/mc):
//	         exhaustive interleaving search at -mc-pes PEs proving the
//	         file's `;mc:` properties plus deadlock and lost-update
//	         freedom; violations come with a replayable counterexample
//	         schedule (-cex writes them as JSONL)
//
// Both honor -enable/-disable by those names. A `.s` file opts out of
// the model checker with `;ultravet:ok guestmc <reason>`.
//
// There is one way to accept a finding: `//ultravet:ok <analyzer>
// <reason>` on or above the line, for any of the four host analyzers.
// Everything else is reported, and any reported finding makes the exit
// status 1.
//
// Usage:
//
//	ultravet ./...                          # text diagnostics
//	ultravet -json ./...                    # all findings as JSON
//	ultravet -enable detstate,hotalloc ./...
//	ultravet -list
//	ultravet -pes 8 -copies 2 examples/asm/tickets.s
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/lint"
	"ultracomputer/internal/lint/analysis"
	"ultracomputer/internal/lint/detstate"
	"ultracomputer/internal/lint/findings"
	"ultracomputer/internal/lint/guest/mc"
	"ultracomputer/internal/lint/hotalloc"
	"ultracomputer/internal/lint/lockcheck"
	"ultracomputer/internal/lint/probegate"
)

// registry lists every host analyzer in stable order.
var registry = []*analysis.Analyzer{
	detstate.Analyzer,
	probegate.Analyzer,
	hotalloc.Analyzer,
	lockcheck.Analyzer,
}

// guestRegistry lists the *.s pseudo-analyzers; they share the
// -enable/-disable namespace with the host registry.
var guestRegistry = []struct{ name, doc string }{
	{"guest", "assemble *.s files and check cross-PE races, cached-read " +
		"staleness, unflushed and late-flushed cached writes (internal/lint)"},
	{"guestmc", "exhaustively model-check *.s files at -mc-pes PEs: `;mc:` " +
		"invariants/finals/asserts/noconcur plus deadlock and lost-update " +
		"freedom, with replayable counterexamples (internal/lint/guest/mc)"},
}

func main() {
	var (
		pes      = flag.Int("pes", 4, "PE count assumed by the guest lint for *.s files")
		copies   = flag.Int("copies", 1, "network copies assumed by the guest lint (Copies > 1 enables the late-flush rule)")
		mcPEs    = flag.Int("mc-pes", 2, "PE count the guestmc model checker enumerates exhaustively (state space grows steeply; a file's `;mc: bound` can cap it lower)")
		mcStates = flag.Int("mc-states", mc.DefaultMaxStates, "guestmc state budget per file; exhausting it is itself a finding")
		cexDir   = flag.String("cex", "", "directory to write guestmc counterexample schedules to, <prog>.cex.jsonl (replayable via internal/lint/guest/mc.Replay)")
		jsonOut  = flag.Bool("json", false, "print every finding as a JSON array in canonical order")
		list     = flag.Bool("list", false, "list the registered analyzers and exit")
		enable   = flag.String("enable", "", "comma-separated analyzers to run (default: all)")
		disable  = flag.String("disable", "", "comma-separated analyzers to skip")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ultravet [flags] [./... | dir | prog.s] ...")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		listAnalyzers(os.Stdout)
		return
	}

	analyzers, guests, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fatal(err)
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var dirs, asmFiles []string
	seen := map[string]bool{}
	for _, arg := range args {
		switch {
		case strings.HasSuffix(arg, ".s"):
			asmFiles = append(asmFiles, arg)
		case arg == "./...":
			expanded, err := analysis.PackageDirs(".")
			if err != nil {
				fatal(err)
			}
			for _, d := range expanded {
				if !seen[d] {
					seen[d] = true
					dirs = append(dirs, d)
				}
			}
		default:
			if !seen[arg] {
				seen[arg] = true
				dirs = append(dirs, arg)
			}
		}
	}
	sort.Strings(dirs)

	var all []findings.Finding
	if len(dirs) > 0 && len(analyzers) > 0 {
		all = append(all, hostLint(analyzers, dirs)...)
	}
	for _, path := range asmFiles {
		if guests["guest"] {
			all = append(all, guestLint(path, *pes, *copies)...)
		}
		if guests["guestmc"] {
			all = append(all, guestMC(path, *mcPEs, *mcStates, *cexDir)...)
		}
	}
	findings.Sort(all)

	if *jsonOut {
		err = findings.WriteJSON(os.Stdout, all)
	} else {
		err = findings.WriteText(os.Stdout, all)
	}
	if err != nil {
		fatal(err)
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "ultravet: %d finding(s)\n", len(all))
		os.Exit(1)
	}
}

// listAnalyzers prints the -list help text: every registered analyzer,
// host then guest, with its one-line doc.
func listAnalyzers(w io.Writer) {
	for _, a := range registry {
		fmt.Fprintf(w, "%-11s %s\n", a.Name, a.Doc)
	}
	for _, g := range guestRegistry {
		fmt.Fprintf(w, "%-11s %s\n", g.name, g.doc)
	}
}

// selectAnalyzers resolves the -enable/-disable flags against the host
// registry and the guest pseudo-analyzers. It returns the host analyzers
// to run and the set of enabled guest analyzer names.
func selectAnalyzers(enable, disable string) ([]*analysis.Analyzer, map[string]bool, error) {
	known := map[string]bool{}
	for _, a := range registry {
		known[a.Name] = true
	}
	for _, g := range guestRegistry {
		known[g.name] = true
	}
	names := func(csv string) (map[string]bool, error) {
		set := map[string]bool{}
		if csv == "" {
			return set, nil
		}
		for _, n := range strings.Split(csv, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if !known[n] {
				return nil, fmt.Errorf("unknown analyzer %q (try -list)", n)
			}
			set[n] = true
		}
		return set, nil
	}
	on, err := names(enable)
	if err != nil {
		return nil, nil, err
	}
	off, err := names(disable)
	if err != nil {
		return nil, nil, err
	}
	selected := func(name string) bool {
		if len(on) > 0 && !on[name] {
			return false
		}
		return !off[name]
	}
	var hosts []*analysis.Analyzer
	for _, a := range registry {
		if selected(a.Name) {
			hosts = append(hosts, a)
		}
	}
	guests := map[string]bool{}
	for _, g := range guestRegistry {
		if selected(g.name) {
			guests[g.name] = true
		}
	}
	return hosts, guests, nil
}

// hostLint loads every package dir and runs the analyzers once over all
// of them together.
func hostLint(analyzers []*analysis.Analyzer, dirs []string) []findings.Finding {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	var pkgs []*analysis.Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", dir, err))
		}
		pkgs = append(pkgs, pkg)
	}
	prog := analysis.BuildProgram(pkgs)

	var out []findings.Finding
	for _, a := range analyzers {
		diags, err := analysis.RunProgram(a, prog)
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			pos := prog.Fset.Position(d.Pos)
			out = append(out, findings.Finding{
				Analyzer: a.Name,
				File:     relPath(pos.Filename),
				Line:     pos.Line,
				Col:      pos.Column,
				Message:  d.Message,
				Chain:    d.Chain,
			})
		}
	}
	return out
}

// guestLint assembles path and runs the coherence/race lint for an SPMD
// run on pes PEs over a copies-wide network.
func guestLint(path string, pes, copies int) []findings.Finding {
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	prog, err := isa.Assemble(string(src))
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	fs := lint.ProgramOpts(prog, lint.Options{PEs: pes, Copies: copies})
	out := make([]findings.Finding, 0, len(fs))
	for _, f := range fs {
		out = append(out, findings.Finding{
			Analyzer: "guest",
			File:     relPath(path),
			Message:  f.String(),
		})
	}
	return out
}

// guestMC model-checks path exhaustively at pes PEs (or the file's own
// `;mc: bound`, whichever is lower) and reports any property violation,
// deadlock, lost update or exhausted state budget as a finding. With a
// cexDir, the violation's schedule is also written as replayable JSONL.
func guestMC(path string, pes, maxStates int, cexDir string) []findings.Finding {
	res, err := mc.CheckFile(path, mc.Options{PEs: pes, MaxStates: maxStates})
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	if res.Suppressed {
		return nil
	}
	if res.Exhausted {
		return []findings.Finding{{
			Analyzer: "guestmc",
			File:     relPath(path),
			Message: fmt.Sprintf("state budget exhausted at %d PEs before the search closed; "+
				"raise -mc-states or add `;mc: bound` to shrink the space", res.PEs),
		}}
	}
	v := res.Violation
	if v == nil {
		return nil
	}
	if cexDir != "" {
		name := strings.TrimSuffix(filepath.Base(path), ".s") + ".cex.jsonl"
		out := filepath.Join(cexDir, name)
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		if err := mc.WriteCex(f, v); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ultravet: wrote %s (%d-step schedule)\n", out, len(v.Steps))
	}
	return []findings.Finding{{
		Analyzer: "guestmc",
		File:     relPath(path),
		Line:     v.Line,
		Message:  fmt.Sprintf("%s (%d PEs, %d-step counterexample)", v.Message, res.PEs, len(v.Steps)),
	}}
}

// relPath makes name working-directory-relative when possible, keeping
// findings machine-independent.
func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	rel, err := filepath.Rel(wd, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		return name
	}
	return filepath.ToSlash(rel)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ultravet:", err)
	os.Exit(1)
}
