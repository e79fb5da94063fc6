package clitest

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// The documents may only name things that exist. TestDocsNameWhatExists
// reads the code text of README.md, DESIGN.md and EXPERIMENTS.md — fenced
// blocks and back-quoted spans — and requires of it that every `make
// <target>` is a Makefile target, every ./path handed to a go command is
// a directory or file, and every span that is a path under internal/,
// cmd/ or examples/ exists (globs must match, a :line must be inside the
// file, and dir.Name must be a name some file of package dir mentions).

var (
	docFiles   = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	spanRe     = regexp.MustCompile("`([^`\n]+)`")
	makeRe     = regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`)
	goCmdRe    = regexp.MustCompile(`\bgo (?:run|test|build|vet)\b[^|;&\n]*`)
	dotPathRe  = regexp.MustCompile(`(?:^|\s)\./([A-Za-z0-9_./-]*)`)
	repoPathRe = regexp.MustCompile(`^(?:internal|cmd|examples)/[A-Za-z0-9_./*{},-]*(?::[0-9]+(?:[-–][0-9]+)?)?$`)
	targetRe   = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
)

// snippet is one piece of a document's code text.
type snippet struct {
	line int
	text string
}

// codeText returns the fenced-block lines and the inline spans of a
// markdown document.
func codeText(doc string) []snippet {
	var out []snippet
	fenced := false
	for i, l := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(l), "```"):
			fenced = !fenced
		case fenced:
			out = append(out, snippet{i + 1, l})
		default:
			for _, m := range spanRe.FindAllStringSubmatch(l, -1) {
				out = append(out, snippet{i + 1, m[1]})
			}
		}
	}
	return out
}

// braces expands one {a,b,c} group: internal/{network,memory} names two
// paths.
func braces(p string) []string {
	open, end := strings.IndexByte(p, '{'), strings.IndexByte(p, '}')
	if open < 0 || end < open {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[open+1:end], ",") {
		out = append(out, braces(p[:open]+alt+p[end+1:])...)
	}
	return out
}

func TestDocsNameWhatExists(t *testing.T) {
	root := filepath.Join("..", "..")
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range targetRe.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}

	// exists checks one repository path, with an optional glob and an
	// optional :line or :from-to suffix.
	exists := func(p string) string {
		p, lines, _ := strings.Cut(p, ":")
		p = strings.TrimSuffix(strings.TrimSuffix(p, "..."), "/")
		full := filepath.Join(root, filepath.FromSlash(p))
		if strings.Contains(p, "*") {
			if m, _ := filepath.Glob(full); len(m) == 0 {
				return "matches nothing"
			}
			return ""
		}
		if _, err := os.Stat(full); err != nil {
			// internal/obs.Probe: a package and a name in it.
			dir, ident, _ := strings.Cut(filepath.Base(p), ".")
			word := regexp.MustCompile(`\b` + regexp.QuoteMeta(ident) + `\b`)
			files, _ := filepath.Glob(filepath.Join(filepath.Dir(full), dir, "*.go"))
			for _, f := range files {
				if data, _ := os.ReadFile(f); ident != "" && word.Match(data) {
					return ""
				}
			}
			return "does not exist"
		}
		if lines != "" {
			last := lines[strings.LastIndexAny(lines, "-–")+1:]
			n, _ := strconv.Atoi(last)
			data, err := os.ReadFile(full)
			if err != nil {
				return err.Error()
			}
			if have := strings.Count(string(data), "\n"); n > have {
				return "has only " + strconv.Itoa(have) + " lines"
			}
		}
		return ""
	}

	for _, name := range docFiles {
		doc, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range codeText(string(doc)) {
			for _, m := range makeRe.FindAllStringSubmatch(c.text, -1) {
				if !targets[m[1]] {
					t.Errorf("%s:%d: `make %s`: no such Makefile target", name, c.line, m[1])
				}
			}
			for _, cmd := range goCmdRe.FindAllString(c.text, -1) {
				for _, m := range dotPathRe.FindAllStringSubmatch(cmd, -1) {
					if why := exists(m[1]); m[1] != "" && m[1] != "..." && why != "" {
						t.Errorf("%s:%d: `%s`: ./%s %s", name, c.line, strings.TrimSpace(cmd), m[1], why)
					}
				}
			}
			if repoPathRe.MatchString(c.text) {
				for _, p := range braces(c.text) {
					if why := exists(p); why != "" {
						t.Errorf("%s:%d: `%s`: %s %s", name, c.line, c.text, p, why)
					}
				}
			}
		}
	}
}

// TestChangesLineBudget keeps CHANGES.md a log of one short line per
// change: no line may exceed 400 characters, counted as runes. The detail
// lives in git log and docs/experiments/.
func TestChangesLineBudget(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "CHANGES.md"))
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range strings.Split(string(data), "\n") {
		if n := utf8.RuneCountInString(l); n > 400 {
			t.Errorf("CHANGES.md:%d is %d characters, over the 400 budget", i+1, n)
		}
	}
}

// TestDocLineBudget caps each of the three documents at its line count on
// the day the cap was set. A change that shrinks a document lowers its
// cap; a change that adds lines pays for them elsewhere in the same
// document. A cap may be lowered and never raised.
func TestDocLineBudget(t *testing.T) {
	for name, limit := range map[string]int{"README.md": 781, "DESIGN.md": 978, "EXPERIMENTS.md": 545} {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(data), "\n"); n > limit {
			t.Errorf("%s is %d lines, over its cap of %d", name, n, limit)
		}
	}
}
