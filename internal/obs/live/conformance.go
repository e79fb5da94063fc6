package live

import (
	"fmt"
	"math"

	"ultracomputer/internal/analytic"
	"ultracomputer/internal/memory"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
)

// Defaults for the conformance model.
const (
	// DefaultRTOverhead is the fixed round-trip cost outside the §4.1
	// switch-stage model: the PNI injection link, the MM dequeue
	// hand-off, and the PE-side delivery each add about one network
	// cycle. Calibrated against seeded uniform-traffic runs, where it
	// brings model and simulator within a few percent of each other.
	DefaultRTOverhead = 3
	// DefaultThreshold is the drift ratio that trips the alert. Seeded
	// uniform runs sit at 1.00–1.15; hot-spot runs without combining
	// reach 5–7, and severe hot spots leak past 2 even with combining.
	DefaultThreshold = 1.5
	// SaturationFraction: observed ρ at or beyond this fraction of the
	// configuration's capacity is reported as saturated — the closed
	// form diverges as mρ → 1, so drift is no longer meaningful there
	// and saturation itself is the alert.
	SaturationFraction = 0.95
)

// Model ties a live network configuration to the paper's §4.1 closed
// form so predicted latency can be evaluated at the observed load.
type Model struct {
	// Net is the analytic view of the running network: N ports, switch
	// radix K, time multiplexing factor M (packets per message — 3 for
	// the data-bearing fetch-and-add/store messages that dominate), and
	// D network copies.
	Net analytic.NetConfig
	// MMLatency is the memory-module service time in network cycles.
	MMLatency int64
	// RTOverhead is the fixed interface cost added to the two network
	// transits and the module service time (see DefaultRTOverhead).
	RTOverhead float64
	// Threshold is the measured/predicted drift ratio that raises the
	// alert.
	Threshold float64
}

// ModelFor derives the conformance model for a simulated network
// configuration, defaulted by the network (Config.WithDefaults).
// mmLatency <= 0 selects memory.DefaultLatency; threshold <= 0 selects
// DefaultThreshold.
func ModelFor(cfg network.Config, mmLatency int64, threshold float64) Model {
	cfg = cfg.WithDefaults()
	if mmLatency <= 0 {
		mmLatency = memory.DefaultLatency
	}
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return Model{
		Net: analytic.NetConfig{
			N: cfg.Ports(), K: cfg.K, M: msg.PacketsWithData, D: cfg.Copies,
		},
		MMLatency:  mmLatency,
		RTOverhead: DefaultRTOverhead,
		Threshold:  threshold,
	}
}

// PredictRT is the model's round-trip latency at offered load rho
// (messages per PE per network cycle): one §4.1 transit each way, plus
// the module service time, plus the fixed interface overhead. It is
// +Inf at or beyond capacity.
func (m Model) PredictRT(rho float64) float64 {
	return 2*analytic.TransitTime(m.Net, rho) + float64(m.MMLatency) + m.RTOverhead
}

// Conformance is one sampling window's comparison of the running
// machine against the analytic model.
type Conformance struct {
	// Cycle is the end of the window; Window its length in cycles.
	Cycle  int64 `json:"cycle"`
	Window int64 `json:"window"`
	// Rho is the observed injected load, messages per PE per cycle.
	Rho float64 `json:"rho"`
	// Capacity is the model's sustainable-load ceiling d/m.
	Capacity float64 `json:"capacity"`
	// RTSamples counts replies delivered in the window; MeasuredRT is
	// their mean round-trip latency and PredictedRT the model's value
	// at Rho (both in network cycles).
	RTSamples   int64   `json:"rt_samples"`
	MeasuredRT  float64 `json:"measured_rt"`
	PredictedRT float64 `json:"predicted_rt"`
	// Drift is MeasuredRT / PredictedRT — 1.0 when the machine behaves
	// like the paper's uniform-traffic analysis, rising at hot-spot
	// onset. Zero when the window had no reply to measure.
	Drift     float64 `json:"drift"`
	Threshold float64 `json:"threshold"`
	// Saturated reports ρ ≥ SaturationFraction × capacity, where the
	// closed form diverges.
	Saturated bool `json:"saturated"`
	// Alert is Saturated, or Drift beyond Threshold.
	Alert bool `json:"alert"`
	// Alerts counts alerting windows since the monitor started.
	Alerts int64 `json:"alerts"`
}

// String renders the window verdict compactly.
func (c Conformance) String() string {
	state := "ok"
	switch {
	case c.Saturated:
		state = "SATURATED"
	case c.Alert:
		state = "ALERT"
	}
	return fmt.Sprintf("cycle=%d rho=%.4f measured=%.2f predicted=%.2f drift=%.2f [%s]",
		c.Cycle, c.Rho, c.MeasuredRT, c.PredictedRT, c.Drift, state)
}

// Monitor evaluates model conformance window by window. It is driven
// from the simulation goroutine (via Feed) and keeps only a cumulative
// alert count as state.
type Monitor struct {
	Model  Model
	alerts int64
}

// NewMonitor returns a monitor for the given model.
func NewMonitor(m Model) *Monitor { return &Monitor{Model: m} }

// Alerts reports how many windows have alerted so far.
func (mon *Monitor) Alerts() int64 { return mon.alerts }

// Compare evaluates the window between two consecutive snapshots:
// observed load from the injected-count delta, measured latency from
// the round-trip delta, predicted latency from the model at that load.
func (mon *Monitor) Compare(prev, cur obs.Snapshot) Conformance {
	c := Conformance{
		Cycle:     cur.Cycle,
		Capacity:  mon.Model.Net.Capacity(),
		Threshold: mon.Model.Threshold,
	}
	dt := cur.Cycle - prev.Cycle
	if dt <= 0 || mon.Model.Net.N == 0 {
		c.Alerts = mon.alerts
		return c
	}
	c.Window = dt
	c.Rho = float64(cur.Injected-prev.Injected) / float64(dt) / float64(mon.Model.Net.N)
	if dc := cur.RTCount - prev.RTCount; dc > 0 {
		c.RTSamples = dc
		c.MeasuredRT = (cur.RTSum - prev.RTSum) / float64(dc)
	}
	c.Saturated = c.Rho >= SaturationFraction*c.Capacity
	c.PredictedRT = mon.Model.PredictRT(c.Rho)
	if c.RTSamples > 0 && c.PredictedRT > 0 && !math.IsInf(c.PredictedRT, 1) {
		c.Drift = c.MeasuredRT / c.PredictedRT
	}
	c.Alert = c.Saturated || c.Drift > c.Threshold
	if c.Alert {
		mon.alerts++
	}
	c.Alerts = mon.alerts
	return c
}
