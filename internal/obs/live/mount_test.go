package live

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ultracomputer/internal/obs"
)

// Two feed servers' handlers mounted under prefixes on one mux must
// serve their own feed's state independently — the multi-session shape
// internal/serve builds one of per session.
func TestMountMultipleFeeds(t *testing.T) {
	mux := http.NewServeMux()
	srvA, srvB := NewFeedServer(), NewFeedServer()
	mux.Handle("/sessions/s1/", http.StripPrefix("/sessions/s1", srvA.Handler()))
	mux.Handle("/sessions/s2/", http.StripPrefix("/sessions/s2", srvB.Handler()))

	feedA := &Feed{Server: srvA}
	feedB := &Feed{Server: srvB}
	feedA.Publish(obs.Snapshot{Cycle: 100, Injected: 10})
	feedB.Publish(obs.Snapshot{Cycle: 200, Injected: 20})
	feedB.Publish(obs.Snapshot{Cycle: 264, Injected: 40})

	ts := httptest.NewServer(mux)
	defer ts.Close()

	if _, body := get(t, ts.URL+"/sessions/s1/metrics"); !strings.Contains(body, "ultra_cycle 100") {
		t.Errorf("s1 metrics missing its own cycle: %q", body)
	}
	if _, body := get(t, ts.URL+"/sessions/s2/metrics"); !strings.Contains(body, "ultra_cycle 264") {
		t.Errorf("s2 metrics missing its own cycle: %q", body)
	}
	if _, body := get(t, ts.URL+"/sessions/s1/healthz"); !strings.Contains(body, `"seq": 1`) {
		t.Errorf("s1 healthz: %q", body)
	}
	if _, body := get(t, ts.URL+"/sessions/s2/healthz"); !strings.Contains(body, `"seq": 2`) {
		t.Errorf("s2 healthz: %q", body)
	}
	// A feed server mounts no process-wide pprof handlers.
	if code, _ := get(t, ts.URL+"/sessions/s1/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("feed server served /debug/pprof/: code=%d, want 404", code)
	}
}
