package findings

import (
	"bytes"
	"strings"
	"testing"
)

// TestSortCanonical checks the -json contract: whatever order findings
// are gathered in, Sort produces one canonical order — analyzer, file,
// line — so the serialized stream is byte-identical.
func TestSortCanonical(t *testing.T) {
	a := []Finding{
		{Analyzer: "lockcheck", File: "internal/network/network.go", Line: 40, Col: 2, Message: "guarded field written without its mutex", Chain: "a → b"},
		{Analyzer: "hotalloc", File: "internal/pe/pe.go", Line: 90, Col: 6, Message: "allocation in hot loop"},
		{Analyzer: "hotalloc", File: "internal/pe/pe.go", Line: 10, Col: 6, Message: "allocation in hot loop"},
		{Analyzer: "guest", File: "prog.s", Message: "racy store"},
	}
	b := []Finding{a[2], a[0], a[3], a[1]}
	Sort(a)
	Sort(b)

	var bufA, bufB bytes.Buffer
	if err := WriteJSON(&bufA, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&bufB, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("same findings, different JSON:\n%s\nvs\n%s", bufA.Bytes(), bufB.Bytes())
	}
	for i, want := range []string{"prog.s:0", "internal/pe/pe.go:10:6", "internal/pe/pe.go:90:6", "internal/network/network.go:40:2"} {
		if got := a[i].String(); !strings.HasPrefix(got, want+": ") {
			t.Errorf("position %d: %q, want prefix %q", i, got, want)
		}
	}
}
