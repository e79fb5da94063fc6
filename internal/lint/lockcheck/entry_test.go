package lockcheck

import (
	"reflect"
	"testing"

	"ultracomputer/internal/lint/analysis"
	"ultracomputer/internal/lint/analysis/analysistest"
)

// TestEntryHeldFacts reads the checker's two fixpoints directly: the
// entry-held sets must prove the *Locked helper convention without
// annotations and meet a locked with an unlocked caller to nothing, and
// the may-acquire sets must name what each function takes.
func TestEntryHeldFacts(t *testing.T) {
	c := check(analysistest.LoadProgram(t, analysistest.TestData(), "lockcheck"))

	node := func(name string) *analysis.Node {
		t.Helper()
		for _, n := range c.prog.Nodes {
			if n.Name() == name {
				return n
			}
		}
		t.Fatalf("no function named %s in the fixture", name)
		return nil
	}
	names := func(locks []lockID) []string {
		out := []string{}
		for _, l := range locks {
			out = append(out, c.gt.name(l))
		}
		return out
	}
	entryHeld := func(fn string) []string {
		e := c.entry[node(fn)]
		if e.top {
			t.Fatalf("%s has no call site: entry set is top", fn)
		}
		return names(sortedLocks(c, e.held))
	}
	acquires := func(fn string) []string { return names(sortedLocks(c, c.acq[node(fn)])) }

	for _, tc := range []struct {
		what string
		got  []string
		want []string
	}{
		{"bumpLocked entry-held", entryHeld("lockcheck.(counter).bumpLocked"), []string{"(counter).mu"}},
		{"bumpMaybe entry-held (meet over a locked and an unlocked caller)", entryHeld("lockcheck.(counter).bumpMaybe"), []string{}},
		{"Bump acquires", acquires("lockcheck.(counter).Bump"), []string{"(counter).mu"}},
		{"Lookup acquires", acquires("lockcheck.(table).Lookup"), []string{"(table).rw"}},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.what, tc.got, tc.want)
		}
	}
}
