package serve

import (
	"encoding/json"
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
	"ultracomputer/internal/msg"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs/live"
)

// Config is a machine configuration as a first-class object: everything
// a run needs — network shape, PE population, timing, cache, engine and
// the guest program — in one JSON-serializable value. It is the single
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

	// Engine selects the execution engine ("serial" or "parallel",
	// default serial); Workers the parallel pool size (0 = GOMAXPROCS).
	// Outputs are byte-identical either way.
	Engine  string `json:"engine,omitempty"`
	Workers int    `json:"workers,omitempty"`

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
// simulator defaults (the same values ultrasim's flags default to).
func (c Config) WithDefaults() Config {
	if c.Copies == 0 {
		c.Copies = 1
	}
	if c.PEs == 0 {
		c.PEs = c.Ports()
	}
	if c.MMLatency == 0 {
		c.MMLatency = 2
	}
	if c.PECycle == 0 {
		c.PECycle = 2
	}
	if c.MaxOutstanding == 0 {
		c.MaxOutstanding = 12
	}
	if c.LocalWords == 0 {
		c.LocalWords = 4096
	}
	if c.Engine == "" {
		c.Engine = "serial"
	}
	if c.Limit == 0 {
		c.Limit = 100_000_000
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 64
	}
	return c
}

// Ports reports K^Stages, the machine's port count.
func (c Config) Ports() int {
	n := 1
	for i := 0; i < c.Stages; i++ {
		n *= c.K
	}
	return n
}

// maxValidPorts bounds k^stages for any config that survives Validate:
// a machine's port count drives several length-Ports allocations at
// build time, so an unbounded product would let one config OOM the
// whole service before quotas ever see it.
const maxValidPorts = 1 << 20

// maxValidWorkers bounds the parallel engine's pool for any config that
// survives Validate: engine.NewParallel starts one goroutine per worker,
// each spinning at the barrier, so an unbounded count would let one
// config exhaust the host.
const maxValidWorkers = 1024

// boundedPorts computes k^stages, reporting failure as soon as the
// running product exceeds max — including after the final multiply — so
// the result is exact and the computation can never overflow: both
// factors are <= max once the first multiply is checked, and max*max
// fits an int64 for any max up to 2^31.
func boundedPorts(k, stages, max int) (int, bool) {
	n := 1
	for i := 0; i < stages; i++ {
		n *= k
		if n > max || n <= 0 {
			return 0, false
		}
	}
	return n, true
}

// MemoryWords is the most private memory the session's guests may come
// to hold, in words (PEs × LocalWords) — the quantity the service's
// memory quota bounds; what is allocated is the pages they have stored to.
func (c Config) MemoryWords() int64 {
	d := c.WithDefaults()
	return int64(d.PEs) * int64(d.LocalWords)
}

// FieldError is one field-level validation failure.
type FieldError struct {
	Field string `json:"field"`
	Msg   string `json:"error"`
}

func (e FieldError) String() string { return e.Field + ": " + e.Msg }

// ValidateError aggregates every field-level failure of one Validate
// pass, so an API client sees all problems at once.
type ValidateError struct {
	Fields []FieldError `json:"field_errors"`
}

func (e *ValidateError) Error() string {
	parts := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		parts[i] = f.String()
	}
	return "config invalid: " + strings.Join(parts, "; ")
}

// configRules is the table of field-level validation checks, evaluated
// against the defaults-filled config. Each rule returns "" when the
// field is acceptable.
var configRules = []struct {
	field string
	check func(c *Config) string
}{
	{"k", func(c *Config) string {
		if c.K < 2 {
			return fmt.Sprintf("switch radix k = %d, need >= 2", c.K)
		}
		return ""
	}},
	{"stages", func(c *Config) string {
		if c.Stages < 1 {
			return fmt.Sprintf("stages = %d, need >= 1", c.Stages)
		}
		if c.K >= 2 {
			if _, ok := boundedPorts(c.K, c.Stages, maxValidPorts); !ok {
				return fmt.Sprintf("k^stages too large (k=%d, stages=%d, max %d ports)", c.K, c.Stages, maxValidPorts)
			}
		}
		return ""
	}},
	{"copies", func(c *Config) string {
		if c.Copies < 1 {
			return fmt.Sprintf("copies = %d, need >= 1", c.Copies)
		}
		if c.Copies > math.MaxUint8 {
			return fmt.Sprintf("copies = %d, need <= %d (a message names its copy in one byte)", c.Copies, math.MaxUint8)
		}
		return ""
	}},
	{"pes", func(c *Config) string {
		if c.PEs < 1 {
			return fmt.Sprintf("pes = %d, need >= 1", c.PEs)
		}
		if c.K >= 2 && c.Stages >= 1 && c.PEs > c.Ports() {
			return fmt.Sprintf("%d PEs but only %d network ports (k^stages)", c.PEs, c.Ports())
		}
		return ""
	}},
	{"queue_capacity", func(c *Config) string {
		if c.QueueCapacity != 0 && c.QueueCapacity < msg.PacketsWithData {
			return fmt.Sprintf("queue_capacity = %d, need >= %d (one full message)", c.QueueCapacity, msg.PacketsWithData)
		}
		return ""
	}},
	{"pni_queue_capacity", func(c *Config) string {
		if c.PNIQueueCapacity != 0 && c.PNIQueueCapacity < msg.PacketsWithData {
			return fmt.Sprintf("pni_queue_capacity = %d, need >= %d (one full message)", c.PNIQueueCapacity, msg.PacketsWithData)
		}
		return ""
	}},
	{"wait_buffer_capacity", func(c *Config) string {
		if c.WaitBufferCapacity < 0 {
			return fmt.Sprintf("wait_buffer_capacity = %d, need >= 0", c.WaitBufferCapacity)
		}
		return ""
	}},
	{"mm_latency", func(c *Config) string {
		if c.MMLatency < 1 {
			return fmt.Sprintf("mm_latency = %d network cycles, need >= 1", c.MMLatency)
		}
		return ""
	}},
	{"pe_cycle", func(c *Config) string {
		if c.PECycle < 1 {
			return fmt.Sprintf("pe_cycle = %d network cycles, need >= 1", c.PECycle)
		}
		return ""
	}},
	{"max_outstanding", func(c *Config) string {
		if c.MaxOutstanding < 1 {
			return fmt.Sprintf("max_outstanding = %d, need >= 1", c.MaxOutstanding)
		}
		return ""
	}},
	{"local_words", func(c *Config) string {
		if c.LocalWords < 1 {
			return fmt.Sprintf("local_words = %d, need >= 1", c.LocalWords)
		}
		return ""
	}},
	{"cache", func(c *Config) string {
		if c.Cache == nil {
			return ""
		}
		if err := c.Cache.toCache().Validate(); err != nil {
			return err.Error()
		}
		return ""
	}},
	{"engine", func(c *Config) string {
		switch c.Engine {
		case "serial", "parallel":
			return ""
		}
		return fmt.Sprintf("unknown engine %q (want serial or parallel)", c.Engine)
	}},
	{"workers", func(c *Config) string {
		if c.Workers < 0 {
			return fmt.Sprintf("workers = %d, need >= 0", c.Workers)
		}
		if c.Workers > maxValidWorkers {
			return fmt.Sprintf("workers = %d, need <= %d (each worker is a goroutine spinning at the barrier)", c.Workers, maxValidWorkers)
		}
		return ""
	}},
	{"limit", func(c *Config) string {
		if c.Limit < 1 {
			return fmt.Sprintf("limit = %d network cycles, need >= 1", c.Limit)
		}
		return ""
	}},
	{"sample_every", func(c *Config) string {
		if c.SampleEvery < 1 {
			return fmt.Sprintf("sample_every = %d, need >= 1", c.SampleEvery)
		}
		return ""
	}},
}

// Validate runs the rule table against the defaults-filled config and
// returns a *ValidateError carrying every field-level failure, or nil.
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
	for _, r := range configRules {
		if msg := r.check(&d); msg != "" {
			fields = append(fields, FieldError{Field: r.field, Msg: msg})
		}
	}
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

// MachineConfig converts to the simulator's machine.Config.
func (c Config) MachineConfig() machine.Config {
	d := c.WithDefaults()
	return machine.Config{
		Net: networkConfig(d),
		PEs: d.PEs, MMLatency: d.MMLatency, PECycle: d.PECycle,
		Hashing: !d.NoHashing, MaxOutstanding: d.MaxOutstanding,
		IdealMemory: d.IdealMemory,
	}
}

// LoadOptions converts to the loader's machine.LoadOptions.
func (c Config) LoadOptions() machine.LoadOptions {
	d := c.WithDefaults()
	opts := machine.LoadOptions{LocalWords: d.LocalWords, Lint: d.Lint}
	if d.Cache != nil {
		cc := d.Cache.toCache()
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
	fs.StringVar(&c.Engine, "engine", c.Engine, "execution engine: serial or parallel (byte-identical outputs either way)")
	fs.IntVar(&c.Workers, "workers", c.Workers, "parallel engine worker count (0 = GOMAXPROCS)")
}

// Build validates the config and assembles the full run: the machine,
// its per-PE cores and the execution engine (which the caller owns and
// must Close). It is the single construction path: ultraserve sessions,
// `ultrasim -config` and ultrasim's flags all build here.
func (c Config) Build() (*machine.Machine, []*isa.Core, engine.Engine, error) {
	d, prog, err := c.validated()
	if err != nil {
		return nil, nil, nil, err
	}
	m, cores, err := machine.Load(d.MachineConfig(), prog, d.LoadOptions())
	if err != nil {
		return nil, nil, nil, err
	}
	eng, err := engine.New(d.Engine, d.Workers)
	if err != nil {
		return nil, nil, nil, err
	}
	m.SetEngine(eng)
	return m, cores, eng, nil
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
		if ok := asValidateError(err, &ve); ok {
			res.FieldErrors = ve.Fields
		} else {
			res.FieldErrors = []FieldError{{Field: "config", Msg: err.Error()}}
		}
		return res
	}
	d := c.WithDefaults()
	model := live.ModelFor(networkConfig(d), d.MMLatency, 0)
	res.OK = true
	res.Ports = d.Ports()
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

// networkConfig builds the simulator network.Config from a
// defaults-filled Config.
func networkConfig(d Config) network.Config {
	return network.Config{
		K: d.K, Stages: d.Stages, Copies: d.Copies,
		QueueCapacity: d.QueueCapacity, WaitBufferCapacity: d.WaitBufferCapacity,
		Combining: !d.NoCombining, PNIQueueCapacity: d.PNIQueueCapacity,
	}
}

func asValidateError(err error, target **ValidateError) bool {
	ve, ok := err.(*ValidateError)
	if ok {
		*target = ve
	}
	return ok
}
