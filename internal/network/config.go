// Package network implements the Ultracomputer's enhanced Omega network
// (paper §3.1, §3.3): a message-switched, pipelined, multistage network of
// k×k switches connecting N = k^D processing elements to N memory
// modules. Each switch output holds a queue of requests; queued requests
// directed at the same memory word combine (load/load, load/store,
// store/store and the fetch-and-phi rules of internal/msg), so any number
// of concurrent references to one cell cost a single memory access.
//
// The network is simulated cycle by cycle at message granularity with
// cut-through timing: a message of P packets occupies each link for P
// cycles, but its header advances one stage per cycle when queues are
// empty, matching the paper's "delay at each switch is only one cycle if
// the queues are empty" (§4.0).
package network

import (
	"fmt"
	"math"
	"strings"

	"ultracomputer/internal/msg"
)

// Config describes one network configuration, in the paper's terms:
// switch size k, number of stages D (so N = k^D ports), number of
// identical copies d, and the queueing parameters.
type Config struct {
	// K is the switch radix (2, 4 or 8 in the paper's §4 analysis).
	K int
	// Stages is D, the number of switch stages; the network connects
	// K^D PEs to K^D MMs.
	Stages int
	// Copies is d, the number of identical network copies sharing the
	// load (§4.1). Requests are spread across copies; replies return
	// through the copy that carried the request. Zero selects
	// DefaultCopies.
	Copies int
	// QueueCapacity is the capacity of each switch output queue in
	// packets. The paper's simulations limit each queue to fifteen
	// packets and report that modest sizes (≈18) behave like infinite
	// queues. Zero selects DefaultQueueCapacity.
	QueueCapacity int
	// WaitBufferCapacity bounds the per-output wait buffer (combined
	// request records awaiting replies). Zero selects
	// DefaultWaitBufferCapacity.
	WaitBufferCapacity int
	// Combining enables request combining in the switches. Disabling
	// it yields the baseline queued Omega network whose hot-spot
	// bandwidth degrades to O(N/log N).
	Combining bool
	// PNIQueueCapacity bounds each processor-network-interface output
	// queue, in packets. Zero selects DefaultQueueCapacity.
	PNIQueueCapacity int
}

// Defaults for the zero fields, chosen per §4.2, and the port bound.
const (
	DefaultCopies             = 1
	DefaultQueueCapacity      = 15
	DefaultWaitBufferCapacity = 8

	// MaxPorts bounds K^Stages: the port count sizes several arrays at
	// build time, so one config must not be able to demand gigabytes.
	MaxPorts = 1 << 20
)

// WithDefaults returns c with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.Copies == 0 {
		c.Copies = DefaultCopies
	}
	if c.QueueCapacity == 0 {
		c.QueueCapacity = DefaultQueueCapacity
	}
	if c.WaitBufferCapacity == 0 {
		c.WaitBufferCapacity = DefaultWaitBufferCapacity
	}
	if c.PNIQueueCapacity == 0 {
		c.PNIQueueCapacity = DefaultQueueCapacity
	}
	return c
}

// Ports reports N = K^Stages, the number of PEs and of MMs, or 0 when
// K < 2, Stages < 1 or N > MaxPorts: a shape Validate refuses. It is the
// one place K^Stages is computed, and the bound is checked before each
// multiply, so no K or Stages can overflow it.
func (c Config) Ports() int {
	if c.K < 2 || c.Stages < 1 {
		return 0
	}
	n := 1
	for i := 0; i < c.Stages; i++ {
		if n > MaxPorts/c.K {
			return 0
		}
		n *= c.K
	}
	return n
}

// FieldError is one field-level validation failure, the field named by
// its JSON name in a run description (serve.Config).
type FieldError struct {
	Field string `json:"field"`
	Msg   string `json:"error"`
}

func (e FieldError) String() string { return e.Field + ": " + e.Msg }

// ValidateError aggregates every field-level failure of one validation
// pass, so a caller sees all problems at once.
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

// Invalid returns fields as a *ValidateError, or nil when there are none.
func Invalid(fields ...FieldError) error {
	if len(fields) == 0 {
		return nil
	}
	return &ValidateError{Fields: fields}
}

// Bound is one row of a bounds table: Check returns what is wrong with
// the field, or "" when it is acceptable.
type Bound[C any] struct {
	Field string
	Check func(C) string
}

// CheckBounds runs the table bs against c and returns every failure, in
// table order.
func CheckBounds[C any](c C, bs []Bound[C]) []FieldError {
	var fields []FieldError
	for _, b := range bs {
		if msg := b.Check(c); msg != "" {
			fields = append(fields, FieldError{Field: b.Field, Msg: msg})
		}
	}
	return fields
}

// Bounds is Config's bounds table. A zero field selects its default and
// passes, so a config and its defaults-filled self check alike.
var Bounds = []Bound[Config]{
	{"k", func(c Config) string {
		if c.K < 2 {
			return fmt.Sprintf("switch radix k = %d, need >= 2", c.K)
		}
		return ""
	}},
	{"stages", func(c Config) string {
		if c.Stages < 1 {
			return fmt.Sprintf("stages = %d, need >= 1", c.Stages)
		}
		if c.K >= 2 && c.Ports() == 0 {
			return fmt.Sprintf("k^stages too large (k=%d, stages=%d, max %d ports)", c.K, c.Stages, MaxPorts)
		}
		return ""
	}},
	{"copies", func(c Config) string {
		if c.Copies < 0 {
			return fmt.Sprintf("copies = %d, need >= 1", c.Copies)
		}
		if c.Copies > math.MaxUint8 {
			return fmt.Sprintf("copies = %d, need <= %d (a message names its copy in one byte)", c.Copies, math.MaxUint8)
		}
		return ""
	}},
	{"queue_capacity", func(c Config) string { return holdsMessage("queue_capacity", c.QueueCapacity) }},
	{"pni_queue_capacity", func(c Config) string { return holdsMessage("pni_queue_capacity", c.PNIQueueCapacity) }},
	{"wait_buffer_capacity", func(c Config) string {
		if c.WaitBufferCapacity < 0 {
			return fmt.Sprintf("wait_buffer_capacity = %d, need >= 0", c.WaitBufferCapacity)
		}
		return ""
	}},
}

// holdsMessage checks a queue capacity: every queue must hold at least
// one full message to guarantee progress.
func holdsMessage(field string, capacity int) string {
	if capacity != 0 && capacity < msg.PacketsWithData {
		return fmt.Sprintf("%s = %d, need >= %d (one full message)", field, capacity, msg.PacketsWithData)
	}
	return ""
}

// Validate reports every field that makes the configuration unusable, as
// a *ValidateError, or nil.
func (c Config) Validate() error { return Invalid(CheckBounds(c, Bounds)...) }

// topology holds the derived routing constants and the wiring tables of
// one network: copies identical Omega networks laid end to end, copy ci
// on lines [ci·n, ci·n+n). It is built once per Network and shared by
// pointer; a hop is then a table lookup and one division by a tabulated
// divisor instead of five divisions by run-time values.
type topology struct {
	k, stages, n int
	group        int // n/k: switches per stage per copy, also the shuffle modulus
	lines        int // copies·n: the length of every per-stage array
	// shuf is the perfect k-shuffle over all lines (it never leaves a
	// copy) and unshuf its inverse.
	shuf, unshuf []int32
	div          []int32 // [s] = k^(stages−1−s), the weight of stage s's routing digit
}

func newTopology(k, stages, copies int) *topology {
	n := Config{K: k, Stages: stages}.Ports()
	t := &topology{k: k, stages: stages, n: n, group: n / k, lines: copies * n, div: make([]int32, stages)}
	tab := make([]int32, 2*t.lines)
	t.shuf, t.unshuf = tab[:t.lines:t.lines], tab[t.lines:]
	for base := 0; base < t.lines; base += n {
		for l := 0; l < n; l++ {
			s := base + (l%t.group)*k + l/t.group
			t.shuf[base+l], t.unshuf[s] = int32(s), int32(base+l)
		}
	}
	for s, d := stages-1, 1; s >= 0; s, d = s-1, d*k {
		t.div[s] = int32(d)
	}
	return t
}

// digit extracts the stage-s routing digit of x: the base-k digits of x
// are consumed most significant first, one per stage (destination-tag
// routing; paper §3.1.1 with its bit numbering reversed to 0-indexed
// stages counted from the PE side).
func (t *topology) digit(x, s int) int { return x / int(t.div[s]) % t.k }

// shuffle is the perfect k-shuffle applied to line numbers before every
// stage: a left rotation of the base-k representation.
func (t *topology) shuffle(l int) int { return int(t.shuf[l]) }

// unshuffle is the inverse permutation, used by the reverse (MM-to-PE)
// path to retrace wires.
func (t *topology) unshuffle(l int) int { return int(t.unshuf[l]) }
