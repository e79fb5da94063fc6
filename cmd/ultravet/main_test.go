package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ultracomputer/internal/lint/analysis"
	"ultracomputer/internal/lint/findings"
	"ultracomputer/internal/lint/guest/mc"
	"ultracomputer/internal/lint/lockcheck"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestJSONGolden pins the `ultravet -json` byte stream: the guest lint
// runs over the racy fixture, the findings are sorted, and the
// serialized array must match the committed golden file exactly — same
// findings, same canonical order — run after run.
func TestJSONGolden(t *testing.T) {
	gather := func() []findings.Finding {
		fs := guestLint(filepath.Join("testdata", "racy.s"), 4, 1)
		findings.Sort(fs)
		return fs
	}

	fs := gather()
	if len(fs) == 0 {
		t.Fatal("racy fixture produced no findings; the golden test is vacuous")
	}
	var buf bytes.Buffer
	if err := findings.WriteJSON(&buf, fs); err != nil {
		t.Fatal(err)
	}

	// A second independent run must serialize to the same bytes.
	var again bytes.Buffer
	if err := findings.WriteJSON(&again, gather()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("two runs, different JSON:\n%s\nvs\n%s", buf.Bytes(), again.Bytes())
	}

	golden := filepath.Join("testdata", "racy.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-json output drifted from %s (run with -update if intended):\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}

// TestMutantJSONGolden pins the guestmc half of `ultravet -json`: the
// model checker runs over a seeded-bug fixture and the serialized finding
// — kind, counterexample length — must match the committed
// golden byte for byte, run after run (the search is deterministic).
func TestMutantJSONGolden(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "lint", "testdata", "handoff_noflush.s")
	gather := func() []findings.Finding {
		fs := guestMC(fixture, 2, mc.DefaultMaxStates, "")
		findings.Sort(fs)
		return fs
	}

	fs := gather()
	if len(fs) == 0 {
		t.Fatal("mutant fixture produced no findings; the golden test is vacuous")
	}
	var buf bytes.Buffer
	if err := findings.WriteJSON(&buf, fs); err != nil {
		t.Fatal(err)
	}

	var again bytes.Buffer
	if err := findings.WriteJSON(&again, gather()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("two runs, different JSON:\n%s\nvs\n%s", buf.Bytes(), again.Bytes())
	}

	golden := filepath.Join("testdata", "mutant.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-json output drifted from %s (run with -update if intended):\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}

// TestLockcheckJSONGolden pins the lockcheck half of `ultravet -json`:
// the analyzer runs over the seeded PR 9 mutants and the serialized
// findings — messages, proving chains — must match the
// committed golden byte for byte, run after run. Paths in findings are
// working-directory-relative, so the test runs from the module root
// like CI does.
func TestLockcheckJSONGolden(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	dir := filepath.Join("internal", "lint", "lockcheck", "testdata", "src", "pr9mutants")
	gather := func() []findings.Finding {
		fs := hostLint([]*analysis.Analyzer{lockcheck.Analyzer}, []string{dir})
		findings.Sort(fs)
		return fs
	}

	fs := gather()
	if len(fs) == 0 {
		t.Fatal("pr9mutants fixture produced no findings; the golden test is vacuous")
	}
	for _, name := range []string{"lostwakeup.go", "interruptstore.go", "rebuildrace.go"} {
		flagged := false
		for _, f := range fs {
			if strings.HasSuffix(f.File, name) {
				flagged = true
				break
			}
		}
		if !flagged {
			t.Errorf("seeded mutant %s produced no finding", name)
		}
	}

	var buf bytes.Buffer
	if err := findings.WriteJSON(&buf, fs); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := findings.WriteJSON(&again, gather()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("two runs, different JSON:\n%s\nvs\n%s", buf.Bytes(), again.Bytes())
	}

	golden := filepath.Join("cmd", "ultravet", "testdata", "lockcheck.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-json output drifted from %s (run with -update if intended):\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}

// TestListAnalyzers checks the -list help text names every registered
// analyzer, lockcheck and its rules included.
func TestListAnalyzers(t *testing.T) {
	var buf bytes.Buffer
	listAnalyzers(&buf)
	out := buf.String()
	for _, a := range registry {
		if !strings.Contains(out, a.Name) {
			t.Errorf("-list output missing analyzer %s", a.Name)
		}
	}
	for _, g := range guestRegistry {
		if !strings.Contains(out, g.name) {
			t.Errorf("-list output missing guest analyzer %s", g.name)
		}
	}
	for _, phrase := range []string{"lockcheck", "lock-order cycles", "mixed plain/atomic"} {
		if !strings.Contains(out, phrase) {
			t.Errorf("-list output does not mention %q", phrase)
		}
	}
}

// TestSelectAnalyzers checks the -enable/-disable registry resolution,
// host and guest halves both.
func TestSelectAnalyzers(t *testing.T) {
	all, guests, err := selectAnalyzers("", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(registry) {
		t.Fatalf("default selection has %d analyzers, want %d", len(all), len(registry))
	}
	if !guests["guest"] || !guests["guestmc"] {
		t.Fatalf("default guest selection = %v, want both guest and guestmc", guests)
	}

	some, _, err := selectAnalyzers("detstate,hotalloc", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 || some[0].Name != "detstate" || some[1].Name != "hotalloc" {
		t.Fatalf("-enable detstate,hotalloc selected %v", names(some))
	}

	most, _, err := selectAnalyzers("", "probegate")
	if err != nil {
		t.Fatal(err)
	}
	if len(most) != len(registry)-1 {
		t.Fatalf("-disable probegate selected %v", names(most))
	}
	for _, a := range most {
		if a.Name == "probegate" {
			t.Fatal("disabled analyzer still selected")
		}
	}

	hosts, guests, err := selectAnalyzers("guestmc", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 0 {
		t.Fatalf("-enable guestmc still selected host analyzers %v", names(hosts))
	}
	if !guests["guestmc"] || guests["guest"] {
		t.Fatalf("-enable guestmc selected guests %v", guests)
	}

	if _, guests, err := selectAnalyzers("", "guestmc"); err != nil || guests["guestmc"] || !guests["guest"] {
		t.Fatalf("-disable guestmc: guests %v, err %v", guests, err)
	}

	if _, _, err := selectAnalyzers("nosuch", ""); err == nil {
		t.Fatal("unknown analyzer accepted")
	}
}

func names(as []*analysis.Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}
