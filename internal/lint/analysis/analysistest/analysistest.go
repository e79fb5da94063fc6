// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against expectations written in the fixture source,
// mirroring golang.org/x/tools/go/analysis/analysistest: a line that
// should trigger a diagnostic carries a comment of the form
//
//	expr() // want `regexp` `another regexp`
//
// with one double- or back-quoted regexp per expected diagnostic on that
// line. Lines without a want comment must produce no diagnostics.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ultracomputer/internal/lint/analysis"
)

// TestData returns the caller's testdata directory; fixture packages live
// under testdata/src/<name>.
func TestData() string {
	d, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return d
}

// LoadProgram loads the fixture package testdata/src/<name> as a
// one-package Program.
func LoadProgram(t *testing.T, testdata, name string) *analysis.Program {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	dir := filepath.Join(testdata, "src", name)
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("analysistest: loading %s: %v", dir, err)
	}
	return analysis.BuildProgram([]*analysis.Package{pkg})
}

// Run loads each fixture package testdata/src/<pkg>, applies the
// analyzer, and reports unexpected or missing diagnostics through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, name := range pkgs {
		prog := LoadProgram(t, testdata, name)
		diags, err := analysis.RunProgram(a, prog)
		if err != nil {
			t.Errorf("analysistest: running %s on %s: %v", a.Name, name, err)
			continue
		}
		check(t, prog.Pkgs[0], name, diags)
	}
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// check compares diagnostics against the fixture's want comments.
func check(t *testing.T, pkg *analysis.Package, name string, diags []analysis.Diagnostic) {
	t.Helper()
	// file -> line -> expectations
	want := map[string]map[int][]*expectation{}
	for _, f := range pkg.Files {
		fname := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(fname)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		perLine := map[int][]*expectation{}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, q := range splitQuoted(m[1]) {
				re, err := regexp.Compile(q)
				if err != nil {
					t.Fatalf("analysistest: %s:%d: bad want regexp %q: %v", fname, i+1, q, err)
				}
				perLine[i+1] = append(perLine[i+1], &expectation{re: re})
			}
		}
		want[fname] = perLine
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		exps := want[pos.Filename][pos.Line]
		ok := false
		for _, e := range exps {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s", name, filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	for fname, perLine := range want {
		for line, exps := range perLine {
			for _, e := range exps {
				if !e.matched {
					t.Errorf("%s: missing diagnostic at %s:%d matching %q", name, filepath.Base(fname), line, e.re)
				}
			}
		}
	}
}

// splitQuoted extracts the double- or back-quoted strings of a want
// comment tail.
func splitQuoted(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return out
			}
			if u, err := strconv.Unquote(s[:end+1]); err == nil {
				out = append(out, u)
			}
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return out
			}
			out = append(out, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			// Stop at the first non-quoted token (e.g. a trailing
			// comment).
			return out
		}
	}
	return out
}
