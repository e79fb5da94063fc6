package serve

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ultracomputer/internal/obs/live"
)

// TestSpinSessionRetainsNoSeries: a session holds O(1) observation
// state however long it runs and however often it samples. The parent
// appended every sample to a series only -metrics ever exports — about
// 88 MB over this run, 44 GB at the default quota — none of it counted
// by admission control.
func TestSpinSessionRetainsNoSeries(t *testing.T) {
	const quota = 100_000
	svc := NewService(Limits{MaxCycles: quota})
	defer svc.Drain()
	s, err := svc.CreateSession("spin")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StageCandidate(Config{K: 2, Stages: 4, SampleEvery: 1, Program: spinForever}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CommitCandidate(""); err != nil {
		t.Fatal(err)
	}
	// The first step builds the machine; growth is measured from there.
	if _, err := s.StepCycles(1); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	ran, err := s.StepCycles(10 * quota)
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	if ran != quota-1 || s.Info().State != StateDone {
		t.Fatalf("ran %d more cycles to state %s, want %d to done", ran, s.Info().State, quota-1)
	}
	if after > before && after-before > 1<<20 {
		t.Errorf("live heap grew by %d bytes over %d sampled cycles, want < 1 MiB", after-before, ran)
	}
	// The final State is still the last sample, restamped with the
	// machine's final cycle.
	st := s.lsrv.Current()
	if st == nil || !st.Done || st.Cycle != quota || st.Snapshot.Cycle != quota ||
		len(st.Snapshot.StageQueueOcc) == 0 || len(st.Snapshot.PEStallCycles) != 16 {
		t.Errorf("final State does not carry the last sample: %+v", st)
	}
}

// TestSessionBuildAllocBudget: building a session's machine and its
// observation kit (the 16-PE shape of the benchmark's serve-lifecycle)
// allocates what the machine needs — network, MMs, and the PEs' cores,
// caches and PNIs carved from a constant number of slabs; the PEs'
// private memory is address space until the guest stores to it — and
// about 18 KB of observation: 182 768 bytes measured when the PEs began
// to be carved (193 176 before), plus a tenth. A session allowed 1<<30
// outstanding requests a PE builds no more than one at the default 12:
// what a PNI carves is bounded by a constant, not by the config.
func TestSessionBuildAllocBudget(t *testing.T) {
	const budget = 196 << 10
	svc := NewService(Limits{})
	defer svc.Drain()
	def := sessionBuildBytes(t, svc, 0)
	if def > budget {
		t.Errorf("building and observing a 16-PE session allocates %d bytes, budget %d", def, budget)
	}
	if hostile := sessionBuildBytes(t, svc, 1<<30); hostile > def {
		t.Errorf("a session at max_outstanding 1<<30 builds %d bytes, %d at the default", hostile, def)
	}
}

// sessionBuildBytes reports the bytes building and observing a 16-PE
// session at maxOutstanding allocates: the least of three sessions, since
// a young process's runtime adds an object to the odd build.
func sessionBuildBytes(t *testing.T, svc *Service, maxOutstanding int) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	for range 3 {
		s, err := svc.CreateSession("build")
		if err != nil {
			t.Fatal(err)
		}
		cfg := smokeConfig()
		cfg.PEs = 16
		cfg.MaxOutstanding = maxOutstanding
		cfg.Cache = &CacheConfig{Sets: 16, Ways: 2, BlockWords: 4}
		if err := s.StageCandidate(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CommitCandidate(""); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.execMu.Lock()
		err = s.ensureMachineLocked()
		s.execMu.Unlock()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if err := svc.DeleteSession(s.ID()); err != nil {
			t.Fatal(err)
		}
	}
	return least
}

// TestFollowerDuringRun is the -race beat for the feed's ownership
// rule: two /events?follow=1 readers and a /snapshot.json poller stay on
// a session from its first publish until it has run to completion and
// been deleted, and the only thing they share with the simulating
// goroutine is the atomically published State.
func TestFollowerDuringRun(t *testing.T) {
	_, base := testAPI(t, Limits{})
	var info SessionInfo
	call(t, http.MethodPost, base+"/sessions", map[string]any{"config": smokeConfig()}, http.StatusCreated, &info)
	sURL := base + "/sessions/" + info.ID
	call(t, http.MethodPost, sURL+"/config/commit", nil, http.StatusOK, nil)
	// One sample's worth of cycles first, so that a follower's first
	// line proves it is attached before the run starts.
	call(t, http.MethodPost, sURL+"/step?cycles=65", nil, http.StatusOK, nil)

	var wg sync.WaitGroup
	var followed [2]int
	attached := make(chan struct{}, len(followed))
	for i := range followed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(sURL + "/events?follow=1")
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var ev struct {
					Kind string `json:"kind"`
				}
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Kind == "" {
					t.Errorf("follower %d: bad event line %q: %v", i, sc.Text(), err)
					return
				}
				if followed[i]++; followed[i] == 1 {
					attached <- struct{}{}
				}
			}
		}()
	}
	var stop atomic.Bool
	var polls, published int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			resp, err := http.Get(sURL + "/snapshot.json")
			if err != nil {
				t.Errorf("poller: %v", err)
				return
			}
			var st live.State
			if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&st) == nil {
				published++
			}
			resp.Body.Close()
			polls++
		}
	}()

	for range followed {
		select {
		case <-attached:
		case <-time.After(30 * time.Second):
			t.Fatal("a follower never received the first window's events")
		}
	}
	call(t, http.MethodPost, sURL+"/start", nil, http.StatusOK, nil)
	waitState(t, base, info.ID, StateDone)
	// Done is published: the followers end on their own. The poller is
	// still reading when the session is drained and removed.
	call(t, http.MethodDelete, sURL, nil, http.StatusNoContent, nil)
	stop.Store(true)
	wg.Wait()
	// /events is a sampled peek (a follower polls every 25 ms), so how
	// many windows each follower caught is the host's business.
	t.Logf("followers read %d events, poller saw %d published States in %d polls", followed, published, polls)
	if published == 0 {
		t.Errorf("poller never saw a published State in %d polls", polls)
	}
}
