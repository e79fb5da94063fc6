package serve

import (
	"bytes"
	"testing"
)

// TestFlagsConfigFileRunEquivalence is the `ultrasim -config` round
// trip: a command line parsed through the real RegisterFlags, captured
// as a JSON file, loaded back and built — against the same command line
// built directly. The reports must be byte-identical: flags and file
// are one description on one construction path, no drift through the
// file.
func TestFlagsConfigFileRunEquivalence(t *testing.T) {
	base := Config{Program: validConfig().Program}.WithDefaults()
	flags, _ := parseFlags(t, base, "-k", "2", "-stages", "4", "-pes", "8", "-limit", "1000000")

	report := func(cfg Config) []byte {
		t.Helper()
		m, _, eng, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if _, done := m.Run(cfg.WithDefaults().Limit); !done {
			t.Fatal("run hit the cycle limit")
		}
		b, err := m.Report().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want, got := report(flags), report(throughFile(t, flags))
	if !bytes.Equal(got, want) {
		t.Errorf("config-file run differs from flags run:\n%s\nvs\n%s", got, want)
	}
}
