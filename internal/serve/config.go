package serve

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"ultracomputer/internal/analytic"
	"ultracomputer/internal/cache"
	"ultracomputer/internal/engine"
	"ultracomputer/internal/isa"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/live"
)

// Config is a machine configuration as a first-class object: everything
// a run needs — network shape, PE population, timing, cache and the
// guest program — in one JSON-serializable value. It is the single
// run description: the ultraserve config store keeps it, `ultrasim
// -config` loads it, ultrasim's machine flags are bound to its fields
// (RegisterFlags), and Build is the one way any of them becomes a
// machine — so a config dry-run, committed and executed by the service
// describes exactly the run a standalone ultrasim invocation performs.
//
// Zero values select the machine defaults (which match ultrasim's flag
// defaults), so a minimal config is just k, stages and a program. The
// two booleans that default to *on* in the simulator — combining and
// address hashing — are stored inverted (NoCombining, NoHashing) so the
// zero value of the struct keeps them enabled.
type Config struct {
	// Name is a free-form label carried through the session index.
	Name string `json:"name,omitempty"`

	// K is the switch radix; Stages the number of switch stages, so the
	// network connects K^Stages PEs to K^Stages MMs; Copies the number
	// of identical network copies (d), default 1.
	K      int `json:"k"`
	Stages int `json:"stages"`
	Copies int `json:"copies,omitempty"`
	// PEs is the populated processing-element count; 0 means one per
	// network port.
	PEs int `json:"pes,omitempty"`

	// NoCombining disables request combining in the switches;
	// NoHashing disables the §3.1.4 address hash over memory modules.
	// Both default to enabled, as on the real machine.
	NoCombining bool `json:"no_combining,omitempty"`
	NoHashing   bool `json:"no_hashing,omitempty"`

	// Queue sizing, in packets; 0 selects the §4.2 defaults.
	QueueCapacity      int `json:"queue_capacity,omitempty"`
	WaitBufferCapacity int `json:"wait_buffer_capacity,omitempty"`
	PNIQueueCapacity   int `json:"pni_queue_capacity,omitempty"`

	// MMLatency and PECycle are the memory-module access time and PE
	// instruction time in network cycles (both default 2, §4.2);
	// MaxOutstanding bounds each PE's in-flight shared requests
	// (default 12).
	MMLatency      int64 `json:"mm_latency,omitempty"`
	PECycle        int64 `json:"pe_cycle,omitempty"`
	MaxOutstanding int   `json:"max_outstanding,omitempty"`
	// IdealMemory bypasses the network: the §2.1 paracomputer ideal.
	IdealMemory bool `json:"ideal_memory,omitempty"`

	// LocalWords is the private memory a PE may address, in words
	// (default 4096); its 4 KiB pages are allocated on first store, and
	// admission control counts the bound, not the pages. Cache, when
	// set, gives every PE a write-back cache enabling the
	// clds/csts/cflu/crel instructions.
	LocalWords int          `json:"local_words,omitempty"`
	Cache      *CacheConfig `json:"cache,omitempty"`

	// Limit is the network-cycle budget for a run (default 100M; the
	// service may clamp it to its per-session quota). SampleEvery is
	// the metrics sampling period in network cycles (default 64).
	Limit       int64 `json:"limit,omitempty"`
	SampleEvery int64 `json:"sample_every,omitempty"`

	// Lint runs the guest coherence/race lint before the program loads;
	// findings fail the build.
	Lint bool `json:"lint,omitempty"`

	// Program is the guest assembly source, run SPMD on every PE.
	Program string `json:"program"`
}

// CacheConfig mirrors cache.Config with JSON field names.
type CacheConfig struct {
	Sets       int `json:"sets"`
	Ways       int `json:"ways"`
	BlockWords int `json:"block_words"`
}

// WithDefaults returns the config with zero fields replaced by the
// simulator defaults (the same values ultrasim's flags default to), each
// read from the package that owns it: machine.Config.WithDefaults for the
// machine's and network's fields, machine.LoadOptions.WithDefaults for
// local_words.
func (c Config) WithDefaults() Config {
	m := c.machineConfig().WithDefaults()
	c.Copies, c.PEs = m.Net.Copies, m.PEs
	c.MMLatency, c.PECycle, c.MaxOutstanding = m.MMLatency, m.PECycle, m.MaxOutstanding
	c.LocalWords = c.loadOptions().WithDefaults().LocalWords
	if c.Limit == 0 {
		c.Limit = 100_000_000
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = obs.DefaultSampleEvery
	}
	return c
}

// MemoryWords is the most private memory the session's guests may come
// to hold, in words (PEs × LocalWords) — the quantity the service's
// memory quota bounds; what is allocated is the pages they have stored to.
func (c Config) MemoryWords() int64 {
	d := c.WithDefaults()
	return int64(d.PEs) * int64(d.LocalWords)
}

// FieldError and ValidateError are the simulator's validation failures:
// the network and the machine check their own fields (network.Bounds,
// machine.Bounds), and the rule table below checks the rest.
type (
	FieldError    = network.FieldError
	ValidateError = network.ValidateError
)

// configRules is the table of checks on the fields no simulator package
// owns, evaluated against the defaults-filled config.
var configRules = []network.Bound[*Config]{
	{Field: "local_words", Check: func(c *Config) string {
		if c.LocalWords < 1 {
			return fmt.Sprintf("local_words = %d, need >= 1", c.LocalWords)
		}
		return ""
	}},
	{Field: "cache", Check: func(c *Config) string {
		if c.Cache == nil {
			return ""
		}
		if err := c.Cache.toCache().Validate(); err != nil {
			return err.Error()
		}
		return ""
	}},
	{Field: "limit", Check: func(c *Config) string {
		if c.Limit < 1 {
			return fmt.Sprintf("limit = %d network cycles, need >= 1", c.Limit)
		}
		return ""
	}},
	{Field: "sample_every", Check: func(c *Config) string {
		if c.SampleEvery < 1 {
			return fmt.Sprintf("sample_every = %d, need >= 1", c.SampleEvery)
		}
		return ""
	}},
}

// Validate checks the defaults-filled config — the machine's fields
// through machine.Config.Validate, the rest through the rule table, then
// the program — and returns a *ValidateError carrying every field-level
// failure, or nil.
func (c Config) Validate() error {
	_, _, err := c.validated()
	return err
}

// validated is Validate that keeps its work: the defaults-filled config
// and the assembled guest program (the last rule, "program", is the
// assembly itself, so Build does not assemble a second time).
func (c Config) validated() (Config, *isa.Program, error) {
	d := c.WithDefaults()
	var fields []FieldError
	if err := d.MachineConfig().Validate(); err != nil {
		var ve *ValidateError
		if !errors.As(err, &ve) {
			return d, nil, err
		}
		fields = ve.Fields
	}
	fields = append(fields, network.CheckBounds(&d, configRules)...)
	var prog *isa.Program
	if strings.TrimSpace(d.Program) == "" {
		fields = append(fields, FieldError{Field: "program", Msg: "guest program source is required"})
	} else if p, err := isa.Assemble(d.Program); err != nil {
		fields = append(fields, FieldError{Field: "program", Msg: "does not assemble: " + err.Error()})
	} else {
		prog = p
	}
	if len(fields) > 0 {
		return d, nil, &ValidateError{Fields: fields}
	}
	return d, prog, nil
}

func (cc *CacheConfig) toCache() cache.Config {
	return cache.Config{Sets: cc.Sets, Ways: cc.Ways, BlockWords: cc.BlockWords}
}

// MachineConfig converts the defaults-filled config to the simulator's
// machine.Config.
func (c Config) MachineConfig() machine.Config { return c.WithDefaults().machineConfig() }

// LoadOptions converts the defaults-filled config to the loader's
// machine.LoadOptions.
func (c Config) LoadOptions() machine.LoadOptions { return c.WithDefaults().loadOptions() }

// machineConfig and loadOptions convert c as it stands.
func (c Config) machineConfig() machine.Config {
	return machine.Config{
		Net: networkConfig(c),
		PEs: c.PEs, MMLatency: c.MMLatency, PECycle: c.PECycle,
		Hashing: !c.NoHashing, MaxOutstanding: c.MaxOutstanding,
		IdealMemory: c.IdealMemory,
	}
}

func (c Config) loadOptions() machine.LoadOptions {
	opts := machine.LoadOptions{LocalWords: c.LocalWords, Lint: c.Lint}
	if c.Cache != nil {
		cc := c.Cache.toCache()
		opts.Cache = &cc
	}
	return opts
}

// RegisterFlags binds ultrasim's machine flags to the config's fields,
// each flag's default being the field's current value: load a config
// file into c and parse, and exactly the flags given on the command
// line override the file. The two switches that default on are stored
// inverted, so they bind through BoolFunc.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.PEs, "pes", c.PEs, "processing elements")
	fs.IntVar(&c.K, "k", c.K, "switch radix")
	fs.IntVar(&c.Stages, "stages", c.Stages, "network stages (ports = k^stages)")
	onByDefault := func(name, usage string, inverted *bool) {
		fs.BoolFunc(name, usage+" (default true)", func(v string) error {
			on, err := strconv.ParseBool(v)
			*inverted = !on
			return err
		})
	}
	onByDefault("combining", "enable request combining", &c.NoCombining)
	onByDefault("hashing", "hash addresses over memory modules", &c.NoHashing)
	fs.IntVar(&c.LocalWords, "local", c.LocalWords, "private memory words per PE")
	fs.BoolVar(&c.Lint, "lint", c.Lint, "run the guest coherence/race lint before the program; findings abort the run")
	fs.Int64Var(&c.Limit, "limit", c.Limit, "network-cycle limit")
	fs.Int64Var(&c.SampleEvery, "sample-every", c.SampleEvery, "network cycles between metrics samples")
}

// Build validates the config and assembles the full run: the machine and
// its per-PE cores. It is the single construction path: ultraserve
// sessions, `ultrasim -config` and ultrasim's flags all build here. The
// third result is the engine the machine runs on, always engine.Serial;
// it remains for the benchmark's serve workload, which releases it.
func (c Config) Build() (*machine.Machine, []*isa.Core, engine.Serial, error) {
	d, prog, err := c.validated()
	if err != nil {
		return nil, nil, engine.Serial{}, err
	}
	m, cores, err := machine.Load(d.MachineConfig(), prog, d.LoadOptions())
	if err != nil {
		return nil, nil, engine.Serial{}, err
	}
	return m, cores, engine.Serial{}, nil
}

// LoadConfigFile reads and validates a Config from a JSON file; unknown
// fields are rejected so typos surface instead of silently defaulting.
func LoadConfigFile(path string) (Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	var c Config
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("%s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// DryRunResult is the §4.1 analytic preview of a config: what the
// closed-form model predicts the network would deliver at a given
// offered load, computed before (and without) running a single cycle.
type DryRunResult struct {
	OK bool `json:"ok"`
	// FieldErrors is set when the config failed validation; all the
	// prediction fields are then zero.
	FieldErrors []FieldError `json:"field_errors,omitempty"`

	Ports int `json:"ports,omitempty"`
	PEs   int `json:"pes,omitempty"`
	// Capacity is the sustainable-load ceiling d/m in messages per PE
	// per network cycle; CostFactor the paper's C = d/(k·lg k).
	Capacity   float64 `json:"capacity,omitempty"`
	CostFactor float64 `json:"cost_factor,omitempty"`
	// Rho is the offered load the prediction was evaluated at.
	Rho float64 `json:"rho"`
	// PredictedTransit is the §4.1 one-way transit time and PredictedRT
	// the full round trip (two transits + MM service + interface
	// overhead), both in network cycles. Zero when Saturated: at or
	// beyond capacity the closed form diverges.
	PredictedTransit float64 `json:"predicted_transit,omitempty"`
	PredictedRT      float64 `json:"predicted_rt,omitempty"`
	Saturated        bool    `json:"saturated,omitempty"`
	// MemoryWords is the config's private-memory footprint (quota input).
	MemoryWords int64 `json:"memory_words,omitempty"`
}

// DefaultDryRunRho is the offered load a dry run evaluates when the
// caller does not specify one — mid-range on the paper's Figure 7 axis.
const DefaultDryRunRho = 0.10

// DryRun validates the config and, when valid, evaluates the paper's
// §4.1 closed form at offered load rho (requests per PE per network
// cycle; <= 0 selects DefaultDryRunRho). No engine cycles run.
func (c Config) DryRun(rho float64) DryRunResult {
	if rho <= 0 {
		rho = DefaultDryRunRho
	}
	res := DryRunResult{Rho: rho}
	if err := c.Validate(); err != nil {
		var ve *ValidateError
		if errors.As(err, &ve) {
			res.FieldErrors = ve.Fields
		} else {
			res.FieldErrors = []FieldError{{Field: "config", Msg: err.Error()}}
		}
		return res
	}
	d := c.WithDefaults()
	model := live.ModelFor(networkConfig(d), d.MMLatency, 0)
	res.OK = true
	res.Ports = networkConfig(d).Ports()
	res.PEs = d.PEs
	res.Capacity = model.Net.Capacity()
	res.CostFactor = model.Net.Cost()
	res.MemoryWords = d.MemoryWords()
	res.Saturated = rho >= live.SaturationFraction*res.Capacity
	if !res.Saturated {
		transit := analytic.TransitTime(model.Net, rho)
		rt := model.PredictRT(rho)
		if !math.IsInf(transit, 1) && !math.IsInf(rt, 1) {
			res.PredictedTransit = transit
			res.PredictedRT = rt
		} else {
			res.Saturated = true
		}
	}
	return res
}

// networkConfig builds the simulator network.Config from c as it stands.
func networkConfig(c Config) network.Config {
	return network.Config{
		K: c.K, Stages: c.Stages, Copies: c.Copies,
		QueueCapacity: c.QueueCapacity, WaitBufferCapacity: c.WaitBufferCapacity,
		Combining: !c.NoCombining, PNIQueueCapacity: c.PNIQueueCapacity,
	}
}
