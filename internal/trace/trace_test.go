package trace

import (
	"math"
	"testing"

	"ultracomputer/internal/analytic"
	"ultracomputer/internal/network"
)

func netCfg(k, stages int, combining bool) network.Config {
	return network.Config{K: k, Stages: stages, Combining: combining}
}

// TestUniformLowLoadDelivers checks basic stability: at low uniform load
// everything offered is eventually served and latency is near the
// unloaded minimum.
func TestUniformLowLoadDelivers(t *testing.T) {
	w := Workload{Rate: 0.02, Hash: true, Seed: 7}
	r := Run(netCfg(2, 4, true), w, 500, 3000)
	if r.Injected == 0 {
		t.Fatal("nothing injected")
	}
	if float64(r.Served) < 0.9*float64(r.Injected) {
		t.Fatalf("served %d of %d injected", r.Served, r.Injected)
	}
	// Unloaded one-way transit: ~stages + packets + 1 cycles.
	if r.OneWay.Value() > 12 {
		t.Fatalf("low-load one-way transit %.2f too high", r.OneWay.Value())
	}
}

// TestLatencyRisesWithLoad checks the qualitative Figure 7 property on
// the real simulator: transit time grows monotonically with offered load.
func TestLatencyRisesWithLoad(t *testing.T) {
	cfg := netCfg(2, 4, true)
	var prev float64
	for i, p := range []float64{0.02, 0.10, 0.20} {
		r := Run(cfg, Workload{Rate: p, Hash: true, Seed: 11}, 1000, 4000)
		if i > 0 && r.OneWay.Value() <= prev {
			t.Fatalf("one-way at p=%v (%.2f) not above previous (%.2f)",
				p, r.OneWay.Value(), prev)
		}
		prev = r.OneWay.Value()
	}
}

// TestAnalyticAgreesAtLowLoad cross-checks simulator and queueing model:
// at light, uniform load the measured one-way transit must sit within a
// small additive constant of the analytic prediction (the model omits
// the MNI assembly and MM handoff).
func TestAnalyticAgreesAtLowLoad(t *testing.T) {
	const stages = 4
	cfg := netCfg(2, stages, true)
	// All fetch-and-adds: 3-packet messages, so m = 3 in model terms.
	model := analytic.NetConfig{N: 16, K: 2, M: 3, D: 1}
	for _, p := range []float64{0.02, 0.05} {
		r := Run(cfg, Workload{Rate: p, Hash: true, Seed: 3}, 1000, 6000)
		want := analytic.TransitTime(model, p)
		got := r.OneWay.Value()
		if got < want-1 || got > want+4 {
			t.Fatalf("p=%v: simulated %.2f vs analytic %.2f (allowed [-1,+4])",
				p, got, want)
		}
	}
}

// TestHotSpotCombiningThroughput is the paper's central bandwidth claim:
// with every PE hammering one word, a combining network sustains far more
// completed operations than the identical non-combining network.
func TestHotSpotCombiningThroughput(t *testing.T) {
	w := Workload{Rate: 0.25, HotFraction: 1.0, HotWord: 42, Hash: true, Seed: 5}
	on := Run(netCfg(2, 4, true), w, 1000, 6000)
	off := Run(netCfg(2, 4, false), w, 1000, 6000)
	if on.Combines == 0 {
		t.Fatal("no combines on a pure hot spot")
	}
	if off.Combines != 0 {
		t.Fatal("combines counted with combining disabled")
	}
	// Completed request throughput: decombination multiplies replies, so
	// count injected-and-completed round trips via RoundTrip samples.
	onDone := on.RoundTrip.N()
	offDone := off.RoundTrip.N()
	if float64(onDone) < 1.5*float64(offDone) {
		t.Fatalf("combining completed %d vs %d without; want >= 1.5x", onDone, offDone)
	}
}

// TestHashingSpreadsStridedTraffic checks §3.1.4: without hashing, a
// strided pattern (all addresses ≡ 0 mod N) lands on one module; with
// hashing the load spreads.
func TestHashingSpreadsStridedTraffic(t *testing.T) {
	// Words chosen so every uniform address maps to module 0 when
	// unhashed: use HotFraction 0 and Words = large multiple via a
	// custom pattern — simplest: all traffic to one hot word.
	base := Workload{Rate: 0.2, HotFraction: 1.0, HotWord: 0, Seed: 9}
	// Different hot words, no hashing: stride-16 words all hit module 0.
	cfg := netCfg(2, 4, false)
	unhashedSkew := moduleSkew(Run(cfg, base, 500, 3000))
	if unhashedSkew < 0.99 {
		t.Fatalf("single-address traffic should be fully skewed, got %.2f", unhashedSkew)
	}
	// Uniform traffic with hashing: near-even.
	uni := Workload{Rate: 0.1, Hash: true, Seed: 9}
	if skew := moduleSkew(Run(cfg, uni, 500, 3000)); skew > 0.25 {
		t.Fatalf("hashed uniform traffic skew %.2f too high", skew)
	}
}

// moduleSkew reports the max module share of served operations.
func moduleSkew(r Result) float64 {
	var total, max int64
	for _, s := range r.PerModuleServed {
		total += s
		if s > max {
			max = s
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) / float64(total)
}

// TestBurstyTrafficHurtsLatency checks the §4.1 worry that motivates
// headroom (the 8×8 d=6 configuration): at the same mean load, bursty
// traffic sees higher transit time than smooth traffic.
func TestBurstyTrafficHurtsLatency(t *testing.T) {
	cfg := netCfg(2, 4, true)
	smooth := Run(cfg, Workload{Rate: 0.12, Hash: true, Seed: 4}, 1000, 6000)
	bursty := Run(cfg, Workload{Rate: 0.12, Hash: true, Seed: 4, Burstiness: 40}, 1000, 6000)
	// Mean offered load is comparable (within 25%).
	ratio := float64(bursty.Offered) / float64(smooth.Offered)
	if ratio < 0.75 || ratio > 1.25 {
		t.Fatalf("burst modulation changed the mean load: ratio %.2f", ratio)
	}
	if bursty.OneWay.Value() <= smooth.OneWay.Value() {
		t.Fatalf("bursty transit %.2f not above smooth %.2f",
			bursty.OneWay.Value(), smooth.OneWay.Value())
	}
}

// TestQueueOccupancyGrowsWithLoad: the mean switch-queue length rises
// with traffic intensity, the mechanism behind the §4.1 delay formula.
func TestQueueOccupancyGrowsWithLoad(t *testing.T) {
	cfg := netCfg(2, 4, true)
	low := Run(cfg, Workload{Rate: 0.03, Hash: true, Seed: 8}, 500, 3000)
	high := Run(cfg, Workload{Rate: 0.22, Hash: true, Seed: 8}, 500, 3000)
	if low.QueueLen.N() == 0 || high.QueueLen.N() == 0 {
		t.Fatal("no queue samples collected")
	}
	if high.QueueLen.Mean() <= low.QueueLen.Mean() {
		t.Fatalf("queue occupancy did not grow with load: %.3f vs %.3f",
			low.QueueLen.Mean(), high.QueueLen.Mean())
	}
}

// TestDeterministicRuns: identical seeds give identical results.
func TestDeterministicRuns(t *testing.T) {
	w := Workload{Rate: 0.15, Hash: true, Seed: 21}
	a := Run(netCfg(2, 3, true), w, 300, 2000)
	b := Run(netCfg(2, 3, true), w, 300, 2000)
	if a.String() != b.String() {
		t.Fatalf("runs differ:\n%s\n%s", a, b)
	}
}

// TestQueueCapacityAblation reproduces the §4.2 observation that modest
// queues behave like large ones at moderate load.
func TestQueueCapacityAblation(t *testing.T) {
	w := Workload{Rate: 0.10, Hash: true, Seed: 13}
	small := Run(network.Config{K: 2, Stages: 4, Combining: true, QueueCapacity: 15}, w, 1000, 5000)
	big := Run(network.Config{K: 2, Stages: 4, Combining: true, QueueCapacity: 1000}, w, 1000, 5000)
	if math.Abs(small.OneWay.Value()-big.OneWay.Value()) > 1.0 {
		t.Fatalf("queue 15 (%.2f) vs queue 1000 (%.2f): modest queues should suffice",
			small.OneWay.Value(), big.OneWay.Value())
	}
}

// TestStableWrites pins the reservation rule: Run sizes the bank's table
// for the writes a workload offers only while the offered load ρ =
// peak·M/D stays at or below stableLoad, and then for the requests that
// are not loads and not at the hot word, plus the hot word, at most
// Words. The benchmark's p = 0.2 (ρ = 0.6) reserves; p = 0.3 (ρ = 0.9),
// the same mean rate offered in bursts (peak 0.4), and the saturated
// loads do not; two copies halve ρ.
func TestStableWrites(t *testing.T) {
	const ports, cycles = 64, 700
	hot := Workload{HotFraction: 0.10, LoadFrac: 0.5, StoreFrac: 0.2}
	for _, c := range []struct {
		name   string
		w      Workload
		copies int
		want   int
	}{
		{"uniform p=0.2", Workload{Rate: 0.2}, 1, 8961},
		{"uniform p=0.05", Workload{Rate: 0.05}, 1, 2241},
		{"hot spot p=0.2", func() Workload { w := hot; w.Rate = 0.2; return w }(), 1, 4033},
		{"uniform p=0.25, at the bound", Workload{Rate: 0.25}, 1, 11201},
		{"uniform p=0.3", Workload{Rate: 0.3}, 1, 0},
		{"hot spot p=0.7", func() Workload { w := hot; w.Rate = 0.7; return w }(), 1, 0},
		{"bursty p=0.2", Workload{Rate: 0.2, Burstiness: 50}, 1, 0},
		{"two copies p=0.4", Workload{Rate: 0.4}, 2, 17921},
		{"capped at Words", Workload{Rate: 0.2, Words: 4096}, 1, 4096},
	} {
		w := c.w
		if w.Words == 0 {
			w.Words = 1 << 20
		}
		if got := w.stableWrites(c.copies, ports, cycles); got != c.want {
			t.Errorf("%s: stableWrites = %d, want %d", c.name, got, c.want)
		}
	}
}
