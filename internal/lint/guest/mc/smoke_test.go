package mc

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// checkGolden compares got with testdata/<name>, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("drifted from %s (run with -update if intended):\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// Exploration smoke: every shipped example and every coord guest program
// must check out clean at the bounds the issue names, within the state
// budget — and explore exactly the state count testdata/states.golden
// records: the count moves with every liveness mask, successor set and
// visibility bit, so it referees any change to how those are derived.
func TestExamplesClean(t *testing.T) {
	want := map[string]int{}
	if raw, err := os.ReadFile(filepath.Join("testdata", "states.golden")); err == nil {
		for _, line := range bytes.Split(raw, []byte("\n")) {
			var run string
			var states int
			if n, _ := fmt.Sscanf(string(line), "%s %d", &run, &states); n == 2 {
				want[run] = states
			}
		}
	} else if !*update {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var got bytes.Buffer
	files, err := filepath.Glob("../../../../examples/asm/*.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	guests, err := filepath.Glob("../../../coord/guest/*.s")
	if err != nil || len(guests) == 0 {
		t.Fatalf("no coord guest programs found: %v", err)
	}
	files = append(files, guests...)
	for _, f := range files {
		for _, n := range []int{2, 3} {
			name := filepath.Base(f)
			run := fmt.Sprintf("%s-n%d", name, n)
			t.Run(run, func(t *testing.T) {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				res, err := CheckSource(string(src), Options{PEs: n})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%s N=%d: states=%d elapsed=%s exhausted=%v", name, res.PEs, res.States, res.Elapsed, res.Exhausted)
				if res.Exhausted {
					t.Fatalf("state budget exhausted at %d states", res.States)
				}
				if res.Violation != nil {
					t.Fatalf("unexpected violation: %s\nschedule: %v", res.Violation.Message, res.Violation.Steps)
				}
				fmt.Fprintf(&got, "%s %d\n", run, res.States)
				if !*update && res.States != want[run] {
					t.Errorf("explored %d states, testdata/states.golden says %d", res.States, want[run])
				}
			})
		}
	}
	if *update && !t.Failed() {
		checkGolden(t, "states.golden", got.Bytes())
	}
}
