package serve

import (
	"bytes"
	"flag"
	"io"
	"reflect"
	"strings"
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

// FuzzFlagsRoundTrip: a command line is outside input too. Whatever
// ultrasim's flags parse into a valid Config must come back from the JSON
// file `ultrasim -config` reads as the same Config, field for field, so a
// run captured in a file replays the run its flags described. The argv
// is the input split at white space, over the base the equivalence test
// above uses; the seeds under testdata/fuzz/FuzzFlagsRoundTrip include its
// command line. `go test` runs the corpus as unit cases; `make fuzz-smoke`
// fuzzes.
func FuzzFlagsRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, argv string) {
		cfg := Config{Program: validConfig().Program}.WithDefaults()
		fs := flag.NewFlagSet("ultrasim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cfg.RegisterFlags(fs)
		if fs.Parse(strings.Fields(argv)) != nil || cfg.Validate() != nil {
			return
		}
		if back := throughFile(t, cfg); !reflect.DeepEqual(back, cfg) {
			t.Errorf("%q did not survive the file:\n  flags %+v\n  file  %+v", argv, cfg, back)
		}
	})
}
