package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// spinProgram never halts (r5 stays 0 < 1): the session only stops via
// pause, quota, or drain — the scheduler-control test workload.
const spinProgram = `
        li   r1, 100
        li   r2, 1
        li   r7, 1
loop:   faa  r3, 0(r1), r2
        blt  r5, r7, loop
        halt
`

// testAPI starts a service with limits and returns its base URL.
func testAPI(t *testing.T, limits Limits) (*Service, string) {
	t.Helper()
	svc := NewService(limits)
	ts := httptest.NewServer(NewAPI(svc).Handler())
	t.Cleanup(func() { ts.Close(); svc.Drain() })
	return svc, ts.URL
}

// call drives one API request and decodes the response.
func call(t *testing.T, method, url string, body any, wantStatus int, out any) string {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s = %d, want %d: %s", method, url, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %v: %s", method, url, err, raw)
		}
	}
	return string(raw)
}

// waitState polls the session until it reaches want.
func waitState(t *testing.T, base, id string, want SessionState) SessionInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var info SessionInfo
		call(t, http.MethodGet, base+"/sessions/"+id, nil, http.StatusOK, &info)
		if info.State == want {
			return info
		}
		if info.State == StateFailed {
			t.Fatalf("session %s failed: %s", id, info.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in %s waiting for %s", id, info.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLifecycleEndToEnd drives the ISSUE's canonical path over the real
// API: create → dry-run → commit → run → pause → step → drain, plus the
// report-equivalence and rollback checks.
func TestLifecycleEndToEnd(t *testing.T) {
	_, base := testAPI(t, Limits{})

	// Create with the config staged in the same request.
	cfg := validConfig()
	var info SessionInfo
	call(t, http.MethodPost, base+"/sessions",
		map[string]any{"name": "lifecycle", "config": cfg}, http.StatusCreated, &info)
	id := info.ID
	if info.State != StateCreated {
		t.Fatalf("fresh session state = %s", info.State)
	}
	sURL := base + "/sessions/" + id

	// Dry-run before any cycles: the §4.1 prediction.
	var dr DryRunResult
	call(t, http.MethodPost, sURL+"/config/dry-run?rho=0.1", nil, http.StatusOK, &dr)
	if !dr.OK || dr.PredictedRT <= 0 {
		t.Fatalf("dry-run: %+v", dr)
	}

	// Running config doesn't exist until commit; starting is a conflict.
	call(t, http.MethodGet, sURL+"/config/running", nil, http.StatusConflict, nil)
	call(t, http.MethodPost, sURL+"/start", nil, http.StatusConflict, nil)

	var ce CommitEntry
	call(t, http.MethodPost, sURL+"/config/commit?comment=v1", nil, http.StatusOK, &ce)
	if ce.Seq != 1 || ce.Comment != "v1" {
		t.Fatalf("commit entry: %+v", ce)
	}

	// Run to completion under the shared scheduler.
	call(t, http.MethodPost, sURL+"/start", nil, http.StatusOK, nil)
	done := waitState(t, base, id, StateDone)
	if done.Cycles == 0 {
		t.Error("done with zero published cycles")
	}

	// The report must be byte-identical to a standalone run of the
	// same config (session isolation + determinism).
	got := call(t, http.MethodGet, sURL+"/report", nil, http.StatusOK, nil)
	m, _, eng, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	m.Run(cfg.WithDefaults().Limit)
	want, err := m.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("session report differs from standalone run:\n%s\nvs\n%s", got, want)
	}

	// Per-session telemetry surface.
	if body := call(t, http.MethodGet, sURL+"/metrics", nil, http.StatusOK, nil); !strings.Contains(body, "ultra_cycle") {
		t.Errorf("session metrics: %q", body)
	}
	var snap struct {
		EventsTotal int64 `json:"events_total"`
	}
	call(t, http.MethodGet, sURL+"/snapshot.json", nil, http.StatusOK, &snap)
	if snap.EventsTotal == 0 {
		t.Error("session probe recorded no events")
	}
	// The final Done state carries no fresh events, but the endpoint
	// must serve (clients poll it after completion).
	call(t, http.MethodGet, sURL+"/events", nil, http.StatusOK, nil)

	// Commit a second config (fewer PEs): session drops to Ready, the
	// stale machine rebuilds on the next start.
	cfg2 := validConfig()
	cfg2.Name = "v2"
	cfg2.PEs = 4
	call(t, http.MethodPut, sURL+"/config/candidate", cfg2, http.StatusOK, nil)
	call(t, http.MethodPost, sURL+"/config/commit?comment=v2", nil, http.StatusOK, nil)
	var after SessionInfo
	call(t, http.MethodGet, sURL, nil, http.StatusOK, &after)
	if after.State != StateReady {
		t.Fatalf("post-commit state = %s, want ready", after.State)
	}
	call(t, http.MethodPost, sURL+"/start", nil, http.StatusOK, nil)
	waitState(t, base, id, StateDone)

	// Rollback restores v1 as the running config (a fresh commit).
	var rb CommitEntry
	call(t, http.MethodPost, sURL+"/config/rollback?comment=undo", nil, http.StatusOK, &rb)
	if !rb.Rollback || rb.Config.Name == "v2" {
		t.Fatalf("rollback entry: %+v", rb)
	}
	var running Config
	call(t, http.MethodGet, sURL+"/config/running", nil, http.StatusOK, &running)
	if running.PEs != cfg.WithDefaults().PEs && running.PEs != cfg.PEs {
		t.Errorf("rollback running config PEs = %d, want v1's %d", running.PEs, cfg.PEs)
	}
	if running.Name == "v2" {
		t.Error("rollback left v2 running")
	}

	// Delete = drain + remove.
	call(t, http.MethodDelete, sURL, nil, http.StatusNoContent, nil)
	call(t, http.MethodGet, sURL, nil, http.StatusNotFound, nil)
}

func TestPauseAndStep(t *testing.T) {
	_, base := testAPI(t, Limits{})
	cfg := validConfig()
	cfg.Program = spinProgram
	cfg.Limit = 10_000_000

	var info SessionInfo
	call(t, http.MethodPost, base+"/sessions", map[string]any{"config": cfg}, http.StatusCreated, &info)
	sURL := base + "/sessions/" + info.ID
	call(t, http.MethodPost, sURL+"/config/commit", nil, http.StatusOK, nil)
	call(t, http.MethodPost, sURL+"/start", nil, http.StatusOK, nil)

	// Let it make progress, then pause and verify the cycle counter
	// freezes (interrupt yields within one machine cycle).
	deadline := time.Now().Add(30 * time.Second)
	for {
		call(t, http.MethodGet, sURL, nil, http.StatusOK, &info)
		if info.Cycles > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never published progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	call(t, http.MethodPost, sURL+"/pause", nil, http.StatusOK, nil)
	// Pause does not wait for the slice in flight, which publishes one
	// last sample as it yields: let that land before the first reading.
	time.Sleep(50 * time.Millisecond)
	var p1, p2 SessionInfo
	call(t, http.MethodGet, sURL, nil, http.StatusOK, &p1)
	time.Sleep(50 * time.Millisecond)
	call(t, http.MethodGet, sURL, nil, http.StatusOK, &p2)
	if p1.State != StatePaused || p2.Cycles != p1.Cycles {
		t.Fatalf("pause didn't freeze: %s %d vs %d", p1.State, p1.Cycles, p2.Cycles)
	}

	// Step exactly 100 cycles, synchronously.
	var step struct {
		Ran  int64       `json:"ran"`
		Info SessionInfo `json:"session"`
	}
	call(t, http.MethodPost, sURL+"/step?cycles=100", nil, http.StatusOK, &step)
	if step.Ran != 100 {
		t.Errorf("step ran %d cycles, want 100", step.Ran)
	}
	if step.Info.State != StatePaused {
		t.Errorf("post-step state = %s", step.Info.State)
	}

	// Stepping while running is a conflict (two drivers).
	call(t, http.MethodPost, sURL+"/start", nil, http.StatusOK, nil)
	call(t, http.MethodPost, sURL+"/step?cycles=10", nil, http.StatusConflict, nil)
	call(t, http.MethodDelete, sURL, nil, http.StatusNoContent, nil)
}

func TestAdmissionControlAtCapacity(t *testing.T) {
	_, base := testAPI(t, Limits{MaxSessions: 2})
	var a, b SessionInfo
	call(t, http.MethodPost, base+"/sessions", nil, http.StatusCreated, &a)
	call(t, http.MethodPost, base+"/sessions", nil, http.StatusCreated, &b)

	// Third session: rejected with 503 and capacity detail.
	body := call(t, http.MethodPost, base+"/sessions", nil, http.StatusServiceUnavailable, nil)
	if !strings.Contains(body, "at capacity (2/2") {
		t.Errorf("capacity error body: %s", body)
	}

	var h Health
	call(t, http.MethodGet, base+"/healthz", nil, http.StatusOK, &h)
	if h.Live != 2 || h.Limits.MaxSessions != 2 {
		t.Errorf("healthz: %+v", h)
	}

	// Deleting one frees a slot.
	call(t, http.MethodDelete, base+"/sessions/"+a.ID, nil, http.StatusNoContent, nil)
	call(t, http.MethodPost, base+"/sessions", nil, http.StatusCreated, nil)
}

func TestQuotaRejectionFieldErrors(t *testing.T) {
	_, base := testAPI(t, Limits{MaxPEs: 4, MaxMemoryWords: 1 << 12})
	var info SessionInfo
	call(t, http.MethodPost, base+"/sessions", nil, http.StatusCreated, &info)

	cfg := validConfig() // 8 PEs × 4096 words: over both quotas
	var resp struct {
		FieldErrors []FieldError `json:"field_errors"`
	}
	raw := call(t, http.MethodPut, base+"/sessions/"+info.ID+"/config/candidate", cfg,
		http.StatusUnprocessableEntity, &resp)
	var fields []string
	for _, f := range resp.FieldErrors {
		fields = append(fields, f.Field)
	}
	if strings.Join(fields, ",") != "pes,local_words" {
		t.Errorf("quota fields = %v: %s", fields, raw)
	}
	// Rejected at candidate time: nothing staged.
	call(t, http.MethodGet, base+"/sessions/"+info.ID+"/config/candidate", nil, http.StatusConflict, nil)
}

func TestPortsQuotaRejection(t *testing.T) {
	// Ports (k^stages) are quota-bounded independently of PEs: a huge
	// network with one populated PE costs build-time allocations the
	// PE quota never sees.
	_, base := testAPI(t, Limits{MaxPorts: 16})
	var info SessionInfo
	call(t, http.MethodPost, base+"/sessions", nil, http.StatusCreated, &info)

	cfg := validConfig() // k=2, stages=4: exactly 16 ports, at quota
	cfg.Stages = 5       // 32 ports: over
	cfg.PEs = 1
	var resp struct {
		FieldErrors []FieldError `json:"field_errors"`
	}
	raw := call(t, http.MethodPut, base+"/sessions/"+info.ID+"/config/candidate", cfg,
		http.StatusUnprocessableEntity, &resp)
	found := false
	for _, f := range resp.FieldErrors {
		if f.Field == "stages" && strings.Contains(f.Msg, "quota") {
			found = true
		}
	}
	if !found {
		t.Errorf("want a stages ports-quota error, got %s", raw)
	}

	cfg.Stages = 4
	call(t, http.MethodPut, base+"/sessions/"+info.ID+"/config/candidate", cfg, http.StatusOK, nil)
}

// TestParallelEngineRefused: a session may not hold a parallel engine's
// never-parking pool; staging one is a 422 with a field error on engine,
// and nothing is staged.
func TestParallelEngineRefused(t *testing.T) {
	_, base := testAPI(t, Limits{})
	var info SessionInfo
	call(t, http.MethodPost, base+"/sessions", nil, http.StatusCreated, &info)

	cfg := validConfig()
	cfg.Engine = "parallel"
	var resp struct {
		FieldErrors []FieldError `json:"field_errors"`
	}
	raw := call(t, http.MethodPut, base+"/sessions/"+info.ID+"/config/candidate", cfg,
		http.StatusUnprocessableEntity, &resp)
	if len(resp.FieldErrors) != 1 || resp.FieldErrors[0].Field != "engine" {
		t.Errorf("want one field error on engine, got %s", raw)
	}
	call(t, http.MethodGet, base+"/sessions/"+info.ID+"/config/candidate", nil, http.StatusConflict, nil)
}

// TestDrainInterruptsSynchronousStep: a big POST /step must yield to a
// concurrent drain within one machine cycle instead of pinning execMu
// until the step count is exhausted — and a drained session must refuse
// further steps rather than rebuild its (already closed) machine.
func TestDrainInterruptsSynchronousStep(t *testing.T) {
	svc := NewService(Limits{})
	s, err := svc.CreateSession("step")
	if err != nil {
		t.Fatal(err)
	}
	cfg := validConfig()
	cfg.Program = spinProgram
	cfg.Limit = 50_000_000
	if err := s.StageCandidate(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CommitCandidate(""); err != nil {
		t.Fatal(err)
	}

	type stepResult struct {
		ran int64
		err error
	}
	res := make(chan stepResult, 1)
	go func() {
		ran, err := s.StepCycles(40_000_000)
		res <- stepResult{ran, err}
	}()
	time.Sleep(100 * time.Millisecond) // let the step get going
	svc.Drain()

	select {
	case r := <-res:
		if r.err == nil && r.ran == 40_000_000 {
			t.Error("step ran to completion; drain should have interrupted it")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("step did not return after drain")
	}
	if _, err := s.StepCycles(10); err == nil {
		t.Error("stepping a drained session must fail, not rebuild the machine")
	}
}

// TestConcurrentClients hammers one service from parallel clients, each
// running a full lifecycle, while another client polls the index — the
// -race beat for the whole API surface.
func TestConcurrentClients(t *testing.T) {
	_, base := testAPI(t, Limits{MaxSessions: 8, Workers: 2})
	const clients = 4

	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(base + "/sessions")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			resp, err = http.Get(base + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cfg := validConfig()
			cfg.Name = fmt.Sprintf("client-%d", c)
			b, _ := json.Marshal(map[string]any{"name": cfg.Name, "config": cfg})
			resp, err := http.Post(base+"/sessions", "application/json", bytes.NewReader(b))
			if err != nil {
				errs <- err
				return
			}
			var info SessionInfo
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				errs <- fmt.Errorf("create: %d %s", resp.StatusCode, raw)
				return
			}
			if err := json.Unmarshal(raw, &info); err != nil {
				errs <- err
				return
			}
			sURL := base + "/sessions/" + info.ID
			for _, step := range []string{"/config/dry-run", "/config/commit", "/start"} {
				resp, err := http.Post(sURL+step, "application/json", nil)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: %d", step, resp.StatusCode)
					return
				}
			}
			deadline := time.Now().Add(60 * time.Second)
			for {
				resp, err := http.Get(sURL)
				if err != nil {
					errs <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var cur SessionInfo
				if err := json.Unmarshal(raw, &cur); err != nil {
					errs <- err
					return
				}
				if cur.State == StateDone {
					break
				}
				if cur.State == StateFailed || time.Now().After(deadline) {
					errs <- fmt.Errorf("session %s: %s %s", info.ID, cur.State, cur.Error)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			resp, err = http.Get(sURL + "/report")
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("report: %d", resp.StatusCode)
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDrainStopsEverything(t *testing.T) {
	svc, base := testAPI(t, Limits{})
	cfg := validConfig()
	cfg.Program = spinProgram
	var info SessionInfo
	call(t, http.MethodPost, base+"/sessions", map[string]any{"config": cfg}, http.StatusCreated, &info)
	sURL := base + "/sessions/" + info.ID
	call(t, http.MethodPost, sURL+"/config/commit", nil, http.StatusOK, nil)
	call(t, http.MethodPost, sURL+"/start", nil, http.StatusOK, nil)

	svc.Drain()

	var after SessionInfo
	call(t, http.MethodGet, sURL, nil, http.StatusOK, &after)
	if after.State != StateDrained {
		t.Errorf("post-drain state = %s", after.State)
	}
	// Drained sessions refuse work; new sessions are refused too.
	call(t, http.MethodPost, sURL+"/start", nil, http.StatusConflict, nil)
	call(t, http.MethodPost, base+"/sessions", nil, http.StatusServiceUnavailable, nil)
	// The final telemetry State was published and marked done.
	var snap struct {
		Done bool `json:"done"`
	}
	call(t, http.MethodGet, sURL+"/snapshot.json", nil, http.StatusOK, &snap)
	if !snap.Done {
		t.Error("drain must finish the feed (snapshot.done)")
	}
}

// TestDrainBeforeFirstSlice pins the race TestDrainStopsEverything used
// to lose: a session is started but the drain arrives before any
// scheduler slice built its machine, so no telemetry State was ever
// published. Closing the scheduler first makes that order certain (a
// closed scheduler drops the start's Enqueue). The drain must still
// leave a done State behind: /snapshot.json answers, and an /events
// follower terminates instead of polling forever.
func TestDrainBeforeFirstSlice(t *testing.T) {
	svc, base := testAPI(t, Limits{})
	svc.sched.Close()
	cfg := validConfig()
	cfg.Program = spinProgram
	var info SessionInfo
	call(t, http.MethodPost, base+"/sessions", map[string]any{"config": cfg}, http.StatusCreated, &info)
	sURL := base + "/sessions/" + info.ID
	call(t, http.MethodPost, sURL+"/config/commit", nil, http.StatusOK, nil)
	call(t, http.MethodPost, sURL+"/start", nil, http.StatusOK, nil)
	call(t, http.MethodGet, sURL+"/snapshot.json", nil, http.StatusServiceUnavailable, nil)

	svc.Drain()

	var snap struct {
		Done bool `json:"done"`
	}
	call(t, http.MethodGet, sURL+"/snapshot.json", nil, http.StatusOK, &snap)
	if !snap.Done {
		t.Error("drain before the first slice must still publish a done State")
	}
	call(t, http.MethodGet, sURL+"/events?follow=1", nil, http.StatusOK, nil)
}

// TestOversizedBodyRejected posts bodies past the API's 1 MiB cap — a
// session create and a config stage — and requires 413 with the uniform
// error body, no session created, and no candidate staged.
func TestOversizedBodyRejected(t *testing.T) {
	svc, base := testAPI(t, Limits{})
	var info SessionInfo
	call(t, http.MethodPost, base+"/sessions", map[string]any{"name": "small"}, http.StatusCreated, &info)

	cfg := validConfig()
	cfg.Program += "; " + strings.Repeat("x", maxBodyBytes) + "\n"
	var e apiError
	call(t, http.MethodPost, base+"/sessions",
		map[string]any{"name": "big", "config": cfg}, http.StatusRequestEntityTooLarge, &e)
	if e.Error == "" {
		t.Error("413 from POST /sessions without the uniform error body")
	}
	if n := len(svc.Sessions()); n != 1 {
		t.Errorf("%d sessions after an oversized create, want the 1 from before", n)
	}

	e = apiError{}
	sURL := base + "/sessions/" + info.ID
	call(t, http.MethodPut, sURL+"/config/candidate", cfg, http.StatusRequestEntityTooLarge, &e)
	if e.Error == "" {
		t.Error("413 from PUT config/candidate without the uniform error body")
	}
	call(t, http.MethodGet, sURL+"/config/candidate", nil, http.StatusConflict, nil)
	if n := len(svc.Sessions()); n != 1 {
		t.Errorf("%d sessions after an oversized stage, want 1", n)
	}
}

// TestPanickingSessionSparesNeighbours makes one session's machine panic
// mid-slice on the single scheduler worker it shares with a neighbour,
// and another's mid-way through a synchronous step. Each must end
// StateFailed with the panic value in its Info and no machine left; the
// worker, the API and the neighbour carry on, and the neighbour's report
// is byte-identical to an undisturbed standalone run.
func TestPanickingSessionSparesNeighbours(t *testing.T) {
	svc, base := testAPI(t, Limits{Workers: 1, Slice: 64})
	cfg := validConfig()
	start := func(name string, panicAt int64) (*Session, string) {
		var info SessionInfo
		call(t, http.MethodPost, base+"/sessions", map[string]any{"name": name, "config": cfg}, http.StatusCreated, &info)
		sURL := base + "/sessions/" + info.ID
		call(t, http.MethodPost, sURL+"/config/commit", nil, http.StatusOK, nil)
		s, err := svc.Session(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if panicAt > 0 {
			var steps int64
			s.execMu.Lock()
			s.beforeStep = func() {
				if steps++; steps == panicAt {
					panic("pe 3: reply matches no outstanding request")
				}
			}
			s.execMu.Unlock()
		}
		return s, sURL
	}
	failed := func(sURL string) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		var info SessionInfo
		for info.State != StateFailed {
			if time.Now().After(deadline) {
				t.Fatalf("%s stuck in %s, want failed", sURL, info.State)
			}
			time.Sleep(2 * time.Millisecond)
			call(t, http.MethodGet, sURL, nil, http.StatusOK, &info)
		}
		if !strings.Contains(info.Error, "matches no outstanding request") || info.BuiltSeq != 0 {
			t.Errorf("failed session info: %+v", info)
		}
		call(t, http.MethodGet, sURL+"/report", nil, http.StatusConflict, nil)
		call(t, http.MethodGet, sURL+"/snapshot.json", nil, http.StatusOK, nil)
	}

	_, badURL := start("bad", 200) // its fourth slice
	_, goodURL := start("good", 0)
	call(t, http.MethodPost, badURL+"/start", nil, http.StatusOK, nil)
	call(t, http.MethodPost, goodURL+"/start", nil, http.StatusOK, nil)
	failed(badURL)

	_, stepURL := start("stepped", 30)
	call(t, http.MethodPost, stepURL+"/step?cycles=100", nil, http.StatusInternalServerError, nil)
	failed(stepURL)

	var goodInfo SessionInfo
	call(t, http.MethodGet, goodURL, nil, http.StatusOK, &goodInfo)
	waitState(t, base, goodInfo.ID, StateDone)
	got := call(t, http.MethodGet, goodURL+"/report", nil, http.StatusOK, nil)
	m, _, eng, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	m.Run(cfg.WithDefaults().Limit)
	want, err := m.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the neighbour's report differs from an undisturbed run:\n%s\nvs\n%s", got, want)
	}
	if h := svc.Healthz(); !h.OK {
		t.Errorf("service unhealthy after two session panics: %+v", h)
	}
}
