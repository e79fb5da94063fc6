package serve

import (
	"net/http"
	"testing"
	"time"
)

// longConfig is validConfig looping 4 000 times, so that a run is still
// going when a client acts on it mid-run.
func longConfig() Config {
	cfg := validConfig()
	cfg.Program = `
        li   r1, 100
        li   r2, 1
        li   r6, 4000
loop:   faa  r3, 0(r1), r2
        addi r5, r5, 1
        blt  r5, r6, loop
        halt
`
	return cfg
}

// runToReport starts a committed session, waits for it to finish and
// returns its report.
func runToReport(t *testing.T, base, id string) string {
	t.Helper()
	sURL := base + "/sessions/" + id
	call(t, http.MethodPost, sURL+"/start", nil, http.StatusOK, nil)
	waitState(t, base, id, StateDone)
	return call(t, http.MethodGet, sURL+"/report", nil, http.StatusOK, nil)
}

// TestResetMidRunMatchesFresh: POST /reset on a running session stops
// its slice and discards the machine; run again to done, the session
// reports byte for byte what a fresh session of the same config does.
func TestResetMidRunMatchesFresh(t *testing.T) {
	_, base := testAPI(t, Limits{})
	cfg := longConfig()
	var a, b SessionInfo
	call(t, http.MethodPost, base+"/sessions", map[string]any{"config": cfg}, http.StatusCreated, &a)
	call(t, http.MethodPost, base+"/sessions", map[string]any{"config": cfg}, http.StatusCreated, &b)
	for _, id := range []string{a.ID, b.ID} {
		call(t, http.MethodPost, base+"/sessions/"+id+"/config/commit", nil, http.StatusOK, nil)
	}

	aURL := base + "/sessions/" + a.ID
	call(t, http.MethodPost, aURL+"/start", nil, http.StatusOK, nil)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var info SessionInfo
		call(t, http.MethodGet, aURL, nil, http.StatusOK, &info)
		if info.State != StateRunning {
			t.Fatalf("session left running before the reset: %s", info.State)
		}
		if info.Cycles > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never published progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var reset SessionInfo
	call(t, http.MethodPost, aURL+"/reset", nil, http.StatusOK, &reset)
	if reset.State != StateReady {
		t.Fatalf("state after reset = %s, want ready", reset.State)
	}
	// The discarded machine's slice may publish once more as it yields;
	// the session must stay ready, not run on.
	time.Sleep(50 * time.Millisecond)
	call(t, http.MethodGet, aURL, nil, http.StatusOK, &reset)
	if reset.State != StateReady {
		t.Fatalf("state after the reset settled = %s, want ready", reset.State)
	}

	got, want := runToReport(t, base, a.ID), runToReport(t, base, b.ID)
	if got != want {
		t.Errorf("report after a mid-run reset differs from a fresh session's:\n%s\nvs\n%s", got, want)
	}
}

// TestConfigHistory: GET /config/history lists every commit and rollback
// in the order they happened.
func TestConfigHistory(t *testing.T) {
	_, base := testAPI(t, Limits{})
	var info SessionInfo
	call(t, http.MethodPost, base+"/sessions", nil, http.StatusCreated, &info)
	sURL := base + "/sessions/" + info.ID

	var h struct {
		History []CommitEntry `json:"history"`
	}
	call(t, http.MethodGet, sURL+"/config/history", nil, http.StatusOK, &h)
	if len(h.History) != 0 {
		t.Fatalf("history before any commit: %+v", h.History)
	}
	for _, name := range []string{"v1", "v2"} {
		cfg := validConfig()
		cfg.Name = name
		call(t, http.MethodPut, sURL+"/config/candidate", cfg, http.StatusOK, nil)
		call(t, http.MethodPost, sURL+"/config/commit?comment="+name, nil, http.StatusOK, nil)
	}
	call(t, http.MethodPost, sURL+"/config/rollback?comment=undo", nil, http.StatusOK, nil)

	call(t, http.MethodGet, sURL+"/config/history", nil, http.StatusOK, &h)
	want := []struct {
		comment, name string
		rollback      bool
	}{{"v1", "v1", false}, {"v2", "v2", false}, {"undo", "v1", true}}
	if len(h.History) != len(want) {
		t.Fatalf("history has %d entries, want %d: %+v", len(h.History), len(want), h.History)
	}
	for i, w := range want {
		e := h.History[i]
		if e.Seq != int64(i+1) || e.Comment != w.comment || e.Config.Name != w.name || e.Rollback != w.rollback {
			t.Errorf("history[%d] = seq %d %q %q rollback=%v, want seq %d %q %q rollback=%v",
				i, e.Seq, e.Comment, e.Config.Name, e.Rollback, i+1, w.comment, w.name, w.rollback)
		}
	}
}

// TestDiscardCandidate: DELETE /config/candidate drops the staged
// config; a GET of the candidate then answers as it does before any
// stage (409: no candidate staged) and a commit has nothing to promote.
func TestDiscardCandidate(t *testing.T) {
	_, base := testAPI(t, Limits{})
	var info SessionInfo
	call(t, http.MethodPost, base+"/sessions", map[string]any{"config": validConfig()}, http.StatusCreated, &info)
	sURL := base + "/sessions/" + info.ID

	var staged Config
	call(t, http.MethodGet, sURL+"/config/candidate", nil, http.StatusOK, &staged)
	if staged.PEs != validConfig().PEs {
		t.Fatalf("staged candidate %+v", staged)
	}
	call(t, http.MethodDelete, sURL+"/config/candidate", nil, http.StatusNoContent, nil)
	call(t, http.MethodGet, sURL+"/config/candidate", nil, http.StatusConflict, nil)
	call(t, http.MethodPost, sURL+"/config/commit", nil, http.StatusConflict, nil)
	// Discarding again is a no-op, not an error.
	call(t, http.MethodDelete, sURL+"/config/candidate", nil, http.StatusNoContent, nil)
}
