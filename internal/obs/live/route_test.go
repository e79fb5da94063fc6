package live

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ultracomputer/internal/obs"
)

// TestFeedServerRoutes pins how a feed server answers each request path:
// its six endpoints under any method, and a plain 404 for every other
// path, a sub-path or a trailing slash of an endpoint included. These are
// the answers an http.ServeMux with the six method-less patterns gives; a
// mounted feed server's paths arrive cleaned by the outer mux. The one
// answer that differs: an unclean path such as /x/../healthz, which a
// ServeMux redirected (301) to its clean form, is a 404 on a bare feed
// server. NewServer still redirects it, through its /debug/pprof mux.
func TestFeedServerRoutes(t *testing.T) {
	srv := NewFeedServer()
	(&Feed{Server: srv}).Publish(obs.Snapshot{Cycle: 64, Injected: 9})
	tests := []struct {
		name     string
		method   string
		path     string
		wantCode int
		wantBody string
	}{
		{name: "healthz", method: http.MethodGet, path: "/healthz", wantCode: http.StatusOK, wantBody: `"published": true`},
		{name: "metrics", method: http.MethodGet, path: "/metrics", wantCode: http.StatusOK, wantBody: "ultra_cycle 64"},
		{name: "snapshot", method: http.MethodGet, path: "/snapshot.json", wantCode: http.StatusOK, wantBody: `"cycle": 64`},
		{name: "events", method: http.MethodGet, path: "/events", wantCode: http.StatusOK},
		{name: "flight without a tracer", method: http.MethodGet, path: "/trace/flight", wantCode: http.StatusNotFound, wantBody: "request tracing not enabled"},
		{name: "profile without a profiler", method: http.MethodGet, path: "/profile", wantCode: http.StatusNotFound, wantBody: "guest profiling not enabled"},
		{name: "non-GET method is served", method: http.MethodPost, path: "/healthz", wantCode: http.StatusOK, wantBody: `"ok": true`},
		{name: "unknown sub-path", method: http.MethodGet, path: "/trace/flight/x", wantCode: http.StatusNotFound, wantBody: "404 page not found"},
		{name: "trailing slash", method: http.MethodGet, path: "/metrics/", wantCode: http.StatusNotFound, wantBody: "404 page not found"},
		{name: "parent of an endpoint", method: http.MethodGet, path: "/trace", wantCode: http.StatusNotFound, wantBody: "404 page not found"},
		{name: "root", method: http.MethodGet, path: "/", wantCode: http.StatusNotFound, wantBody: "404 page not found"},
		{name: "pprof is not a feed endpoint", method: http.MethodGet, path: "/debug/pprof/", wantCode: http.StatusNotFound, wantBody: "404 page not found"},
		{name: "unclean path", method: http.MethodGet, path: "/x/../healthz", wantCode: http.StatusNotFound, wantBody: "404 page not found"},
		{name: "NewServer: pprof", method: http.MethodGet, path: "/debug/pprof/", wantCode: http.StatusOK, wantBody: "goroutine"},
		{name: "NewServer: unclean path", method: http.MethodGet, path: "/x/../healthz", wantCode: http.StatusMovedPermanently},
		{name: "NewServer: healthz", method: http.MethodGet, path: "/healthz", wantCode: http.StatusOK, wantBody: `"ok": true`},
	}
	full := NewServer()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := srv.Handler()
			if strings.HasPrefix(tt.name, "NewServer: ") {
				h = full.Handler()
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(tt.method, tt.path, nil))
			if w.Code != tt.wantCode {
				t.Errorf("%s %s: code %d, want %d", tt.method, tt.path, w.Code, tt.wantCode)
			}
			if !strings.Contains(w.Body.String(), tt.wantBody) {
				t.Errorf("%s %s: body %q, want it to contain %q", tt.method, tt.path, w.Body.String(), tt.wantBody)
			}
		})
	}
}
