package live

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"ultracomputer/internal/obs"
)

// ReadHeaderTimeout and IdleTimeout bound how long a client may take to
// send a request's headers and how long a kept-alive connection may sit
// idle, on this server and on the session service's (internal/serve), so
// a slow or silent client cannot hold a connection open forever. There
// is deliberately no write timeout: /events?follow=1 streams for as long
// as the run lasts.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// followPollInterval is how often /events?follow=1 checks for a newer
// published State. Polling the atomic pointer is cheap and keeps the
// server completely decoupled from the simulation goroutine (no
// channels into the tick loop).
const followPollInterval = 25 * time.Millisecond

// Server exposes published States over HTTP. The zero synchronization
// cost on the simulation side is the point: Publish is one atomic
// pointer swap, and handlers only ever read frozen States.
//
// There is no mutex and so nothing for lockcheck's guard annotations
// to say: cur is only ever touched through the atomic.Pointer (the
// mixed plain/atomic rule still watches that this stays true), and
// every State behind it is frozen before the swap.
type Server struct {
	mux *http.ServeMux
	cur atomic.Pointer[State]
	// flight serves /trace/flight; set before Start (SetFlight).
	flight FlightSource
	// profile serves /profile; set before Start (SetProfile).
	profile ProfileSource
}

// FlightSource provides an on-demand flight-recorder dump: the current
// ring of complete request spans plus slow outliers, as JSONL. The
// reqtrace.Tracer implements it (WriteFlightJSONL locks the tracer, so
// serving mid-run is safe).
type FlightSource interface {
	WriteFlightJSONL(w io.Writer) error
}

// SetFlight attaches the flight-recorder source served by
// /trace/flight. Call before Start; nil (the default) makes the
// endpoint report that tracing is disabled.
func (s *Server) SetFlight(src FlightSource) { s.flight = src }

// ProfileSource provides the current guest profile as gzipped
// pprof-format bytes, nil before the first publish. The guest profiler
// (internal/obs/prof.Profiler) implements it: LiveProfile reads an
// atomically published snapshot, so serving mid-run is safe.
type ProfileSource interface {
	LiveProfile() []byte
}

// SetProfile attaches the guest-profile source served by /profile.
// Call before Start; nil (the default) makes the endpoint report that
// profiling is disabled.
func (s *Server) SetProfile(src ProfileSource) { s.profile = src }

// NewServer returns a server with all endpoints registered: the
// feed-scoped set plus the process-wide /debug/pprof handlers. Use it
// when the process serves exactly one run (ultrasim/netperf -serve).
func NewServer() *Server {
	s := NewFeedServer()
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// NewFeedServer returns a server with only the feed-scoped endpoints
// registered (/healthz, /metrics, /snapshot.json, /events,
// /trace/flight, /profile) and no process-wide /debug/pprof. A process
// serving many simultaneous runs builds one feed server per feed and
// mounts each Handler under its own path prefix (http.StripPrefix), the
// way internal/serve publishes one telemetry surface per session.
func NewFeedServer() *Server {
	s := &Server{mux: http.NewServeMux()}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/snapshot.json", s.handleSnapshot)
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/trace/flight", s.handleFlight)
	s.mux.HandleFunc("/profile", s.handleProfile)
	return s
}

// Publish makes st the current State. st must not be mutated afterward.
func (s *Server) Publish(st *State) { s.cur.Store(st) }

// Current returns the most recently published State, or nil before the
// first publish.
func (s *Server) Current() *State { return s.cur.Load() }

// Handler returns the server's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (":0" picks a free port), serves in a
// background goroutine, and returns the http.Server plus the bound
// address. Shut down with hs.Close.
func (s *Server) Start(addr string) (hs *http.Server, bound string, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	hs = &http.Server{Handler: s.mux, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
	go func() { _ = hs.Serve(ln) }()
	return hs, ln.Addr().String(), nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.Current()
	resp := struct {
		OK        bool  `json:"ok"`
		Published bool  `json:"published"`
		Seq       int64 `json:"seq"`
		Cycle     int64 `json:"cycle"`
		Alerts    int   `json:"alerts"`
		Done      bool  `json:"done"`
	}{OK: true}
	if st != nil {
		resp.Published = true
		resp.Seq = st.Seq
		resp.Cycle = st.Cycle
		resp.Alerts = len(st.Alerts)
		resp.Done = st.Done
	}
	writeJSON(w, resp)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	st := s.Current()
	if st == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"published":false}`)
		return
	}
	writeJSON(w, st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeMetrics(w, s.Current())
}

// eventJSON is the /events wire form of an obs.Event: enums as strings,
// the address split into module and word.
type eventJSON struct {
	Cycle    int64  `json:"cycle"`
	Kind     string `json:"kind"`
	Op       string `json:"op"`
	Cause    string `json:"cause,omitempty"`
	PE       int    `json:"pe"`
	Stage    int    `json:"stage"`
	MM       int    `json:"mm"`
	Copy     int    `json:"copy"`
	ID       uint64 `json:"id"`
	ID2      uint64 `json:"id2,omitempty"`
	AddrMM   int    `json:"addr_mm"`
	AddrWord int    `json:"addr_word"`
	Value    int64  `json:"value"`
}

func toEventJSON(ev obs.Event) eventJSON {
	cause := ""
	if ev.Cause != obs.CauseNone {
		cause = ev.Cause.String()
	}
	return eventJSON{
		Cycle: ev.Cycle, Kind: ev.Kind.String(), Op: ev.Op.String(),
		Cause: cause, PE: int(ev.PE), Stage: int(ev.Stage), MM: int(ev.MM), Copy: int(ev.Copy),
		ID: ev.ID, ID2: ev.ID2,
		AddrMM: ev.Addr.MM, AddrWord: ev.Addr.Word, Value: ev.Value,
	}
}

// handleEvents streams recent probe events as JSONL. Without ?follow it
// dumps the current window's events once; with ?follow=1 it keeps
// emitting each newly published window's events until the run is done
// or the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	follow := r.URL.Query().Get("follow") != ""
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var lastSeq int64
	for {
		st := s.Current()
		if st != nil && st.Seq != lastSeq {
			lastSeq = st.Seq
			for _, ev := range st.Events {
				if err := enc.Encode(toEventJSON(ev)); err != nil {
					return
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if !follow || (st != nil && st.Done) {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(followPollInterval):
		}
	}
}

// handleFlight dumps the flight recorder on demand: the tracer's ring
// of recent complete spans plus the slow-outlier reservoir, as JSONL.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintln(w, `{"error":"request tracing not enabled; run with -reqtrace"}`)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := s.flight.WriteFlightJSONL(w); err != nil {
		// Headers are gone; nothing useful to do but stop writing.
		return
	}
}

// handleProfile serves the most recently published guest profile as a
// gzipped pprof protobuf, fetchable directly:
//
//	go tool pprof http://addr/profile
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if s.profile == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintln(w, `{"error":"guest profiling not enabled; run with -prof"}`)
		return
	}
	b := s.profile.LiveProfile()
	if len(b) == 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"no profile published yet"}`)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="ultraprof.pb.gz"`)
	_, _ = w.Write(b)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
