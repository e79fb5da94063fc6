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
	// through the copy that carried the request.
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

// Defaults for queue sizing, chosen per §4.2.
const (
	DefaultQueueCapacity      = 15
	DefaultWaitBufferCapacity = 8

	// msgMaxPackets is the longest message (one carrying data); every
	// queue must hold at least one full message to guarantee progress.
	msgMaxPackets = 3
)

// withDefaults returns cfg with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.Copies == 0 {
		c.Copies = 1
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

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.K < 2 {
		return fmt.Errorf("network: switch radix K = %d, need >= 2", c.K)
	}
	if c.Stages < 1 {
		return fmt.Errorf("network: Stages = %d, need >= 1", c.Stages)
	}
	if c.Copies < 0 || c.Copies > math.MaxUint8 { // a message names its copy in one byte
		return fmt.Errorf("network: Copies = %d, need 0..%d", c.Copies, math.MaxUint8)
	}
	if c.QueueCapacity != 0 && c.QueueCapacity < msgMaxPackets {
		return fmt.Errorf("network: QueueCapacity = %d, need >= %d (one full message)", c.QueueCapacity, msgMaxPackets)
	}
	if c.PNIQueueCapacity != 0 && c.PNIQueueCapacity < msgMaxPackets {
		return fmt.Errorf("network: PNIQueueCapacity = %d, need >= %d (one full message)", c.PNIQueueCapacity, msgMaxPackets)
	}
	// Bound K^Stages after every multiply — including the last — so a
	// huge K with few stages can't slip past and demand multi-GiB port
	// arrays at build time. n can't overflow: both factors stay <= 2^20
	// once the first product is checked (the n <= 0 guard covers 32-bit
	// ints).
	n := 1
	for i := 0; i < c.Stages; i++ {
		n *= c.K
		if n > 1<<20 || n <= 0 {
			return fmt.Errorf("network: K^Stages too large (K=%d, Stages=%d)", c.K, c.Stages)
		}
	}
	return nil
}

// Ports reports N = K^Stages, the number of PEs and of MMs.
func (c Config) Ports() int {
	n := 1
	for i := 0; i < c.Stages; i++ {
		n *= c.K
	}
	return n
}

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
