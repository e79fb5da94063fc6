package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
)

// validConfig is a minimal config every test mutates from.
func validConfig() Config {
	return Config{
		K: 2, Stages: 4, PEs: 8,
		Limit: 1_000_000,
		Program: `
        li   r1, 100
        li   r2, 1
        li   r6, 200
loop:   faa  r3, 0(r1), r2
        addi r5, r5, 1
        blt  r5, r6, loop
        halt
`,
	}
}

// fieldsOf collects the field names from a validation error.
func fieldsOf(t *testing.T, err error) []string {
	t.Helper()
	var ve *ValidateError
	if !errors.As(err, &ve) {
		t.Fatalf("want *ValidateError, got %T: %v", err, err)
	}
	var names []string
	for _, f := range ve.Fields {
		names = append(names, f.Field)
	}
	return names
}

// TestValidateTable has a row for every field a bound checks — the
// network's, the machine's and configRules (and the program rule) —
// named by the field error it must produce, plus the edge cases past
// reviews found; the loop at the end fails when a bound is added without
// a row.
func TestValidateTable(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		fields []string // expected failing fields, in order
	}{
		{"ok", func(c *Config) {}, nil},
		{"bad k", func(c *Config) { c.K = 1 }, []string{"k"}},
		{"bad stages", func(c *Config) { c.Stages = 0 }, []string{"stages"}},
		{"too many ports", func(c *Config) { c.Stages = 40 }, []string{"stages"}},
		// The k^stages bound must hold after the final multiply too: a
		// huge radix with one stage once slipped through and let the
		// network build allocate multi-GiB port arrays.
		{"huge k one stage", func(c *Config) { c.K = 1 << 30; c.Stages = 1; c.PEs = 1 }, []string{"stages"}},
		{"overflowing k^stages", func(c *Config) { c.K = 1 << 31; c.Stages = 2; c.PEs = 1 }, []string{"stages"}},
		// The same bound with pes left to default to the port count: an
		// unbounded k^stages once added a second, spurious pes error.
		{"2^63 ports, default pes", func(c *Config) { c.Stages = 63; c.PEs = 0 }, []string{"stages"}},
		{"2^64 ports, default pes", func(c *Config) { c.Stages = 64; c.PEs = 0 }, []string{"stages"}},
		{"2^62 ports, default pes", func(c *Config) { c.K = 1 << 31; c.Stages = 2; c.PEs = 0 }, []string{"stages"}},
		{"pes beyond ports", func(c *Config) { c.PEs = 17 }, []string{"pes"}},
		{"too many copies", func(c *Config) { c.Copies = 256 }, []string{"copies"}},
		{"tiny queue", func(c *Config) { c.QueueCapacity = 2 }, []string{"queue_capacity"}},
		{"tiny pni queue", func(c *Config) { c.PNIQueueCapacity = 1 }, []string{"pni_queue_capacity"}},
		{"wait_buffer_capacity", func(c *Config) { c.WaitBufferCapacity = -1 }, []string{"wait_buffer_capacity"}},
		{"mm_latency", func(c *Config) { c.MMLatency = -1 }, []string{"mm_latency"}},
		{"pe_cycle", func(c *Config) { c.PECycle = -2 }, []string{"pe_cycle"}},
		{"max_outstanding", func(c *Config) { c.MaxOutstanding = -1 }, []string{"max_outstanding"}},
		{"local_words", func(c *Config) { c.LocalWords = -4096 }, []string{"local_words"}},
		{"bad cache", func(c *Config) { c.Cache = &CacheConfig{Sets: 3, Ways: 1, BlockWords: 4} }, []string{"cache"}},
		{"limit", func(c *Config) { c.Limit = -1 }, []string{"limit"}},
		{"sample_every", func(c *Config) { c.SampleEvery = -64 }, []string{"sample_every"}},
		{"empty program", func(c *Config) { c.Program = "  \n" }, []string{"program"}},
		{"unassemblable program", func(c *Config) { c.Program = "bogus r1, r2" }, []string{"program"}},
		{"several at once", func(c *Config) { c.K = 0; c.Program = "" }, []string{"k", "program"}},
		// Field errors come grouped by owner: the network's, then the
		// machine's, then serve's own.
		{"owners in order", func(c *Config) { c.PEs = 17; c.QueueCapacity = 2; c.LocalWords = -1 }, []string{"queue_capacity", "pes", "local_words"}},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		for _, f := range tc.fields {
			covered[f] = true
		}
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.fields == nil {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			got := fieldsOf(t, err)
			if strings.Join(got, ",") != strings.Join(tc.fields, ",") {
				t.Errorf("failing fields = %v, want %v", got, tc.fields)
			}
		})
	}
	var fields []string
	for _, b := range network.Bounds {
		fields = append(fields, b.Field)
	}
	for _, b := range machine.Bounds {
		fields = append(fields, b.Field)
	}
	for _, r := range configRules {
		fields = append(fields, r.Field)
	}
	for _, f := range fields {
		if !covered[f] {
			t.Errorf("rule %q has no row in this table", f)
		}
	}
}

// The "several at once" row above reports k and program together: field
// errors accumulate rather than short-circuit, so a client fixes
// everything in one round trip.

// TestQuotaTable has a row for every check of Limits.checkConfig, named
// by the field error it must produce; each row's config passes Validate,
// so the quota is what refuses it.
func TestQuotaTable(t *testing.T) {
	cases := []struct {
		name, field string
		limits      Limits
		mutate      func(*Config)
	}{
		{"pes", "pes", Limits{MaxPEs: 4}, func(c *Config) {}},
		{"stages", "stages", Limits{MaxPorts: 8}, func(c *Config) {}},
		{"local_words", "local_words", Limits{MaxMemoryWords: 1 << 12}, func(c *Config) {}},
		// pes × local_words = 2^64 wraps to 0 words as a product.
		{"local_words wrapping", "local_words", DefaultLimits(), func(c *Config) { c.PEs = 16; c.LocalWords = 1 << 60 }},
	}
	if got := DefaultLimits().checkConfig(validConfig()); len(got) != 0 {
		t.Fatalf("the default quotas refuse the base config: %v", got)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("row must pass Validate: %v", err)
			}
			got := tc.limits.checkConfig(cfg)
			if len(got) != 1 || got[0].Field != tc.field {
				t.Errorf("quota errors = %v, want one on %q", got, tc.field)
			}
		})
	}
}

// FuzzConfig: a config arrives over HTTP (and through `ultrasim
// -config`), so decoding, validating and quota-checking one must never
// panic, and whatever all three accept must be something the service can
// afford to build — ports, PEs and private memory inside their bounds —
// and something the machine builds without a panic. The seeds under
// testdata/fuzz/FuzzConfig are configs that once got through or that
// strict decoding must refuse (an "engine" or "workers" field,
// which configs no longer have). `go test` runs the corpus as unit cases;
// `make fuzz-smoke` fuzzes.
func FuzzConfig(f *testing.F) {
	valid, err := json.Marshal(validConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Config
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&c) != nil {
			return
		}
		l := DefaultLimits()
		if c.Validate() != nil || len(l.checkConfig(c)) != 0 {
			return
		}
		d := c.WithDefaults()
		ports := networkConfig(d).Ports()
		if ports < 1 || ports > l.MaxPorts {
			t.Fatalf("accepted k = %d, stages = %d: %d ports, quota %d", d.K, d.Stages, ports, l.MaxPorts)
		}
		if d.PEs < 1 || d.PEs > ports || d.PEs > l.MaxPEs {
			t.Fatalf("accepted pes = %d on %d ports (quota %d)", d.PEs, ports, l.MaxPEs)
		}
		if d.LocalWords < 1 || int64(d.LocalWords) > l.MaxMemoryWords/int64(d.PEs) {
			t.Errorf("accepted local_words = %d on %d PEs (quota %d words)", d.LocalWords, d.PEs, l.MaxMemoryWords)
		}
		// Build what was accepted. 2^16 ports in 255 copies is within
		// quota but far too large to build per input, so only shapes of
		// at most 1Ki port lines are built.
		if ports*d.Copies > 1<<10 {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("accepted a config the machine panics on: %v", r)
			}
		}()
		machine.New(c.MachineConfig(), nil)
	})
}

func TestWithDefaultsMatchesUltrasimFlags(t *testing.T) {
	d := Config{K: 2, Stages: 4, Program: "halt"}.WithDefaults()
	if d.PEs != 16 || d.Copies != 1 || d.MMLatency != 2 || d.PECycle != 2 ||
		d.MaxOutstanding != 12 || d.LocalWords != 4096 ||
		d.Limit != 100_000_000 || d.SampleEvery != 64 {
		t.Errorf("defaults drifted from ultrasim's flag defaults: %+v", d)
	}
	mc := d.MachineConfig()
	if !mc.Net.Combining || !mc.Hashing {
		t.Error("combining/hashing must default on (inverted NoCombining/NoHashing)")
	}
}

func TestDryRunPredictsWithoutRunning(t *testing.T) {
	res := validConfig().DryRun(0.10)
	if !res.OK {
		t.Fatalf("dry-run rejected a valid config: %+v", res.FieldErrors)
	}
	if res.PredictedRT <= 0 || res.PredictedTransit <= 0 {
		t.Errorf("no §4.1 prediction: %+v", res)
	}
	if res.PredictedRT <= 2*res.PredictedTransit {
		t.Errorf("round trip %v must exceed two transits %v", res.PredictedRT, res.PredictedTransit)
	}
	if math.IsInf(res.PredictedRT, 0) || math.IsNaN(res.PredictedRT) {
		t.Errorf("prediction not finite: %v", res.PredictedRT)
	}
	if res.Capacity <= 0 || res.Saturated {
		t.Errorf("rho=0.10 on k2-d1 must be below saturation: %+v", res)
	}
}

func TestDryRunSaturation(t *testing.T) {
	// Offered load beyond d/m capacity: the closed form diverges, so the
	// result must flag saturation with zeroed (JSON-safe) predictions.
	res := validConfig().DryRun(0.95)
	if !res.OK || !res.Saturated {
		t.Fatalf("rho=0.95 must saturate k2-d1 (capacity %v): %+v", res.Capacity, res)
	}
	if res.PredictedRT != 0 || res.PredictedTransit != 0 {
		t.Errorf("saturated predictions must be zeroed, got rt=%v transit=%v", res.PredictedRT, res.PredictedTransit)
	}
}

func TestDryRunInvalidConfig(t *testing.T) {
	cfg := validConfig()
	cfg.K = 1
	res := cfg.DryRun(0)
	if res.OK || len(res.FieldErrors) == 0 {
		t.Fatalf("invalid config must dry-run to field errors: %+v", res)
	}
}

// TestLoadConfigFileRejectsUnknownFields: a config file naming a field
// configs do not have — a typo, or the engine and workers fields that
// configs no longer have — is refused, and the error names the field.
func TestLoadConfigFileRejectsUnknownFields(t *testing.T) {
	for _, c := range []struct{ field, doc string }{
		{"prgoram", `{"k":2,"stages":4,"prgoram":"halt"}`},
		{"engine", `{"k":2,"stages":4,"program":"halt","engine":"parallel"}`},
		{"workers", `{"k":2,"stages":4,"program":"halt","workers":3}`},
	} {
		t.Run(c.field, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cfg.json")
			if err := os.WriteFile(path, []byte(c.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadConfigFile(path); err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("unknown field %s must be rejected, got %v", c.field, err)
			}
		})
	}
}

// parseFlags binds base to a fresh flag set through the real
// RegisterFlags and parses args over it, the way ultrasim does.
func parseFlags(t *testing.T, base Config, args ...string) (Config, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("ultrasim", flag.ContinueOnError)
	base.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return base, fs
}

// throughFile writes cfg as the JSON file `ultrasim -config` reads and
// loads it back.
func throughFile(t *testing.T, cfg Config) Config {
	t.Helper()
	b, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadConfigFile(path)
	if err != nil {
		t.Fatalf("config did not load back: %v\n%s", err, b)
	}
	return loaded
}

// Flags are the config object's fields: every registered flag must land
// in a field the JSON file carries, so a command line can be captured
// in a file and replayed. A flag registered without a row here fails
// the test.
func TestEveryFlagRoundTripsThroughFile(t *testing.T) {
	values := map[string]string{
		"pes": "3", "k": "4", "stages": "5", "combining": "false", "hashing": "false",
		"local": "2048", "lint": "true", "limit": "5000", "sample-every": "32",
	}
	base := validConfig()
	_, fs := parseFlags(t, base)
	fs.VisitAll(func(f *flag.Flag) {
		v, ok := values[f.Name]
		if !ok {
			t.Errorf("flag -%s is registered but has no row in this test", f.Name)
			return
		}
		delete(values, f.Name)
		got, _ := parseFlags(t, base, "-"+f.Name+"="+v)
		if got == base {
			t.Errorf("-%s=%s changed no config field", f.Name, v)
		}
		if back := throughFile(t, got); back != got {
			t.Errorf("-%s=%s did not survive the file:\n  flags %+v\n  file  %+v", f.Name, v, got, back)
		}
	})
	for name := range values {
		t.Errorf("flag -%s is no longer registered", name)
	}
}
