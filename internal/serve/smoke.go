package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"
)

// smokeProgram is the serve-smoke guest: every PE hammers one shared
// word with fetch-and-adds through the combining network — the paper's
// canonical workload — and halts after a fixed iteration count.
const smokeProgram = `
        li   r1, 100
        li   r2, 1
        li   r6, 2000
loop:   faa  r3, 0(r1), r2
        add  r4, r4, r3
        addi r5, r5, 1
        blt  r5, r6, loop
        halt
`

// spinForever is the cheapest abuse: every PE loops without touching
// memory until a cycle limit stops the session.
const spinForever = "spin: jmp spin\n"

// smokeConfig is the shared config both smoke sessions run and the
// standalone machine is built from.
func smokeConfig() Config {
	return Config{
		Name: "serve-smoke", K: 2, Stages: 4, PEs: 8,
		Limit:   5_000_000,
		Program: smokeProgram,
	}
}

// Smoke is the CI end-to-end check behind `ultraserve -smoke` and
// `make serve-smoke`: it starts a real service on a loopback port,
// drives two concurrent sessions through the full API lifecycle
// (create+stage → dry-run → commit → start), waits for both to finish,
// and verifies each session's /report bytes are identical to a
// standalone in-process run of the same config — the session-isolation
// and determinism guarantee the service rests on.
func Smoke(out io.Writer) error {
	svc := NewService(Limits{})
	defer svc.Drain()
	hs, bound, err := NewAPI(svc).Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer hs.Close()
	base := "http://" + bound
	fmt.Fprintf(out, "serve-smoke: service on %s\n", base)

	cfg := smokeConfig()
	body, err := json.Marshal(struct {
		Name   string  `json:"name"`
		Config *Config `json:"config"`
	}{"smoke", &cfg})
	if err != nil {
		return err
	}

	// Create two sessions, each with the config staged in the same call.
	var ids []string
	for i := 0; i < 2; i++ {
		var info SessionInfo
		if err := smokeDo(http.MethodPost, base+"/sessions", body, http.StatusCreated, &info); err != nil {
			return fmt.Errorf("create session: %w", err)
		}
		ids = append(ids, info.ID)
	}
	fmt.Fprintf(out, "serve-smoke: sessions %s\n", strings.Join(ids, ", "))

	for _, id := range ids {
		// Dry-run the candidate: the §4.1 prediction must come back
		// before any cycles run.
		var dr DryRunResult
		if err := smokeDo(http.MethodPost, base+"/sessions/"+id+"/config/dry-run?rho=0.1", nil, http.StatusOK, &dr); err != nil {
			return fmt.Errorf("dry-run %s: %w", id, err)
		}
		if !dr.OK || dr.PredictedRT <= 0 {
			return fmt.Errorf("dry-run %s: no prediction in %+v", id, dr)
		}
		var ce CommitEntry
		if err := smokeDo(http.MethodPost, base+"/sessions/"+id+"/config/commit?comment=smoke", nil, http.StatusOK, &ce); err != nil {
			return fmt.Errorf("commit %s: %w", id, err)
		}
		if err := smokeDo(http.MethodPost, base+"/sessions/"+id+"/start", nil, http.StatusOK, nil); err != nil {
			return fmt.Errorf("start %s: %w", id, err)
		}
	}
	fmt.Fprintf(out, "serve-smoke: both sessions running (dry-run predicted RT before start)\n")

	// Wait for both to run to completion under the shared scheduler.
	deadline := time.Now().Add(120 * time.Second)
	for _, id := range ids {
		if err := smokeWaitDone(base, id, deadline); err != nil {
			return err
		}
	}

	// The reference: the same config run standalone, in process — the
	// machine ultrasim would build from these parameters.
	m, _, eng, err := cfg.Build()
	if err != nil {
		return fmt.Errorf("standalone build: %w", err)
	}
	defer eng.Close()
	m.Run(cfg.WithDefaults().Limit)
	want, err := m.Report().JSON()
	if err != nil {
		return err
	}

	for _, id := range ids {
		got, err := smokeRaw(base + "/sessions/" + id + "/report")
		if err != nil {
			return fmt.Errorf("report %s: %w", id, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("session %s report differs from standalone run (%d vs %d bytes)", id, len(got), len(want))
		}
	}
	fmt.Fprintf(out, "serve-smoke: OK — both session reports byte-identical to the standalone run (%d bytes)\n", len(want))
	return smokeSpin(out, base)
}

// smokeWaitDone polls a session until it is done.
func smokeWaitDone(base, id string, deadline time.Time) error {
	for {
		var info SessionInfo
		if err := smokeDo(http.MethodGet, base+"/sessions/"+id, nil, http.StatusOK, &info); err != nil {
			return fmt.Errorf("poll %s: %w", id, err)
		}
		switch {
		case info.State == StateDone:
			return nil
		case info.State == StateFailed:
			return fmt.Errorf("session %s failed: %s", id, info.Error)
		case time.Now().After(deadline):
			return fmt.Errorf("session %s still %s at deadline", id, info.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// smokeSpin is the abuse scenario "a session that does nothing, for as
// long as it is allowed, sampled as often as it can ask": every PE
// spins to the cycle limit with sample_every = 1. It must bounce off —
// the service's heap may not grow with the number of samples (the
// series only -metrics exports is not kept for a session) — and the
// final State must still carry the last sample.
func smokeSpin(out io.Writer, base string) error {
	const limit, maxGrowth = 100_000, 4 << 20
	cfg := Config{Name: "spin", K: 2, Stages: 4, Limit: limit, SampleEvery: 1, Program: spinForever}
	body, err := json.Marshal(struct {
		Config *Config `json:"config"`
	}{&cfg})
	if err != nil {
		return err
	}
	var info SessionInfo
	if err := smokeDo(http.MethodPost, base+"/sessions", body, http.StatusCreated, &info); err != nil {
		return fmt.Errorf("create spin session: %w", err)
	}
	sURL := base + "/sessions/" + info.ID
	if err := smokeDo(http.MethodPost, sURL+"/config/commit", nil, http.StatusOK, nil); err != nil {
		return fmt.Errorf("commit spin session: %w", err)
	}
	before := liveHeap()
	if err := smokeDo(http.MethodPost, sURL+"/start", nil, http.StatusOK, nil); err != nil {
		return fmt.Errorf("start spin session: %w", err)
	}
	if err := smokeWaitDone(base, info.ID, time.Now().Add(120*time.Second)); err != nil {
		return err
	}
	after := liveHeap()
	var st struct {
		Cycle int64 `json:"cycle"`
		Done  bool  `json:"done"`
	}
	if err := smokeDo(http.MethodGet, sURL+"/snapshot.json", nil, http.StatusOK, &st); err != nil {
		return fmt.Errorf("spin session snapshot: %w", err)
	}
	if !st.Done || st.Cycle != limit {
		return fmt.Errorf("spin session ended at cycle %d (done %v), want its limit %d", st.Cycle, st.Done, limit)
	}
	if after > before && after-before > maxGrowth {
		return fmt.Errorf("spin session: heap grew by %d bytes over %d samples (bound %d)", after-before, limit, maxGrowth)
	}
	if err := smokeDo(http.MethodDelete, sURL, nil, http.StatusNoContent, nil); err != nil {
		return fmt.Errorf("delete spin session: %w", err)
	}
	fmt.Fprintf(out, "serve-smoke: OK — a session spinning to its limit at sample_every=1 held O(1) observation state (%d samples)\n", limit)
	return nil
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// smokeDo performs one API call, checks the status, and decodes the
// JSON response into v (when v is non-nil).
func smokeDo(method, url string, body []byte, wantStatus int, v any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, strings.TrimSpace(string(b)))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(b, v)
}

// smokeRaw fetches a URL and returns the raw body bytes.
func smokeRaw(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}
