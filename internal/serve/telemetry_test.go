package serve

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestSessionTelemetryBytes pins every byte a session's telemetry
// surface serves: a fixed 8-PE session stepped synchronously to three
// sample boundaries and then to halt must answer /snapshot.json,
// /metrics and a one-shot /events with exactly these bodies. The hashes
// were taken before the observation kit was resized (PR 23) and must not
// move when what a session holds changes.
func TestSessionTelemetryBytes(t *testing.T) {
	svc := NewService(Limits{})
	defer svc.Drain()
	s, err := svc.CreateSession("telemetry")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StageCandidate(validConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CommitCandidate(""); err != nil {
		t.Fatal(err)
	}
	fetch := func(path string) string {
		t.Helper()
		rr := httptest.NewRecorder()
		s.LiveHandler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, rr.Code, rr.Body)
		}
		return fmt.Sprintf("%x", sha256.Sum256(rr.Body.Bytes()))
	}
	// sample_every defaults to 64 and the machine samples at the end of
	// the step that begins on a multiple of it: after 65, 129 and 1025
	// cycles the sample of cycle 64, 128 and 1024 has just been published.
	steps := []struct {
		to                        int64
		snapshot, metrics, events string
	}{
		{65,
			"3f3c8215d75d738ced0eff5ed9cb9687963c1a3b7ad15439ef3d5af4c8b72d1d",
			"ce13ab6689e78d92cce1774858ef0959824aa1bcff23a14a900206efaa746d8a",
			"8d4c2f35c5deff8336a3371224998f109cee3bf2c32149f95b85c0d54ff6678d"},
		{129,
			"e5379f771c864631410ce41f5053edc570b0a0df99ca9c77b6a727c43d7b74dc",
			"a3ecbc36b015d3ca02c3d8de288c493db7c676c5487551c2a181790e31e58665",
			"c22c166578a5130ff7d13fb76f8893ba2137d3f491d919d67c3f9e59a1587ffc"},
		{1025,
			"5040fc1676ea8cc4f65c52d6878c2d7dc7c3c36d1f9db13f9d49e45a43a72871",
			"babc1e780dad7c80593251cda2a6f25988fce906ab7f58193770a31b8116de79",
			"7af7b34dd90d3a53b7bb4215b0620808589fed211e19bdfdd0bca1125c48fd4f"},
		// To halt (cycle 3607): the Done State carries no events.
		{0,
			"20807202f689acdd6fc0a92d6bb1365f27b8c4f8dd0733f39fb7e00d1f2c7e02",
			"db75d565514a5e6f0fdad93b50cbb120ce7765498859f689e49747ae15577d14",
			"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	}
	var at int64
	for _, st := range steps {
		n := st.to - at
		if st.to == 0 {
			n = 1 << 30
		}
		ran, err := s.StepCycles(n)
		if err != nil {
			t.Fatal(err)
		}
		at += ran
		if st.to != 0 && at != st.to {
			t.Fatalf("stepped to cycle %d, want %d", at, st.to)
		}
		if st.to == 0 && s.Info().State != StateDone {
			t.Fatalf("session is %s after the last step, want done", s.Info().State)
		}
		got := [3]string{fetch("/snapshot.json"), fetch("/metrics"), fetch("/events")}
		want := [3]string{st.snapshot, st.metrics, st.events}
		for i, name := range []string{"/snapshot.json", "/metrics", "/events"} {
			if got[i] != want[i] {
				t.Errorf("cycle %d (step to %d): %s sha256 = %s, want %s", at, st.to, name, got[i], want[i])
			}
		}
	}
}
