package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"

	"ultracomputer/internal/obs/live"
)

// maxBodyBytes bounds every request body the API decodes. A config
// carries its program as text; the largest shipped one is a few KiB.
const maxBodyBytes = 1 << 20

// API is the service's HTTP surface. See doc.go for the endpoint table.
type API struct {
	svc *Service
	mux *http.ServeMux
}

// NewAPI builds the HTTP API over a service.
func NewAPI(svc *Service) *API {
	a := &API{svc: svc, mux: http.NewServeMux()}
	a.mux.HandleFunc("GET /healthz", a.handleHealthz)
	a.mux.HandleFunc("GET /sessions", a.handleIndex)
	a.mux.HandleFunc("POST /sessions", a.handleCreate)
	a.mux.HandleFunc("GET /sessions/{id}", a.handleInfo)
	a.mux.HandleFunc("DELETE /sessions/{id}", a.handleDelete)
	a.mux.HandleFunc("PUT /sessions/{id}/config/candidate", a.handleStage)
	a.mux.HandleFunc("GET /sessions/{id}/config/candidate", a.handleGetCandidate)
	a.mux.HandleFunc("DELETE /sessions/{id}/config/candidate", a.handleDiscard)
	a.mux.HandleFunc("POST /sessions/{id}/config/dry-run", a.handleDryRun)
	a.mux.HandleFunc("POST /sessions/{id}/config/commit", a.handleCommit)
	a.mux.HandleFunc("POST /sessions/{id}/config/rollback", a.handleRollback)
	a.mux.HandleFunc("GET /sessions/{id}/config/running", a.handleGetRunning)
	a.mux.HandleFunc("GET /sessions/{id}/config/history", a.handleHistory)
	a.mux.HandleFunc("POST /sessions/{id}/start", a.handleStart)
	a.mux.HandleFunc("POST /sessions/{id}/pause", a.handlePause)
	a.mux.HandleFunc("POST /sessions/{id}/step", a.handleStep)
	a.mux.HandleFunc("POST /sessions/{id}/reset", a.handleReset)
	a.mux.HandleFunc("GET /sessions/{id}/report", a.handleReport)
	// Everything else under a session id — /metrics, /snapshot.json,
	// /events, /healthz — is the session's own telemetry surface,
	// delegated per request so deleted sessions 404 immediately.
	a.mux.HandleFunc("GET /sessions/{id}/", a.handleTelemetry)
	return a
}

// Handler returns the API's HTTP handler.
func (a *API) Handler() http.Handler { return a.mux }

// Start listens on addr (":0" picks a free port) and serves in a
// background goroutine; shut down with hs.Close.
func (a *API) Start(addr string) (hs *http.Server, bound string, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	hs = &http.Server{Handler: a.mux, ReadHeaderTimeout: live.ReadHeaderTimeout, IdleTimeout: live.IdleTimeout}
	go func() { _ = hs.Serve(ln) }()
	return hs, ln.Addr().String(), nil
}

// apiError is the uniform error body.
type apiError struct {
	Error       string       `json:"error"`
	FieldErrors []FieldError `json:"field_errors,omitempty"`
}

// decodeBody decodes the request's JSON body into v, reading at most
// maxBodyBytes of it; a longer body fails with an *http.MaxBytesError,
// and so does a field v does not have, so a typo surfaces instead of
// silently defaulting.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// writeErr maps service errors to status codes: validation failures are
// 422 with field-level detail, capacity rejections 503, state conflicts
// 409, unknown sessions 404, oversized bodies 413, a panic inside a
// session's machine 500.
func writeErr(w http.ResponseWriter, err error) {
	var ve *ValidateError
	var ce *CapacityError
	var tooLarge *http.MaxBytesError
	body := apiError{Error: err.Error()}
	code := http.StatusBadRequest
	switch {
	case errors.As(err, &tooLarge):
		code = http.StatusRequestEntityTooLarge
	case errors.As(err, &ve):
		code = http.StatusUnprocessableEntity
		body.FieldErrors = ve.Fields
	case errors.As(err, &ce):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrMachinePanic):
		code = http.StatusInternalServerError
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrConflict), errors.Is(err, ErrNoCandidate),
		errors.Is(err, ErrNoRunning), errors.Is(err, ErrNoRollback):
		code = http.StatusConflict
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

func writeOK(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (a *API) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	s, err := a.svc.Session(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return nil, false
	}
	return s, true
}

func (a *API) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeOK(w, a.svc.Healthz())
}

func (a *API) handleIndex(w http.ResponseWriter, r *http.Request) {
	writeOK(w, struct {
		Sessions []SessionInfo `json:"sessions"`
	}{a.svc.Sessions()})
}

func (a *API) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
		// Config, when present, is staged as the candidate immediately —
		// one round trip to create and stage.
		Config *Config `json:"config"`
	}
	if r.ContentLength != 0 {
		if err := decodeBody(w, r, &req); err != nil {
			writeErr(w, fmt.Errorf("bad request body: %w", err))
			return
		}
	}
	s, err := a.svc.CreateSession(req.Name)
	if err != nil {
		writeErr(w, err)
		return
	}
	if req.Config != nil {
		if err := s.StageCandidate(*req.Config); err != nil {
			// Session exists but the config was rejected: report the
			// field errors alongside the created id so the client can
			// retry the stage without re-creating.
			var ve *ValidateError
			if errors.As(err, &ve) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusUnprocessableEntity)
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				_ = enc.Encode(struct {
					Session     SessionInfo  `json:"session"`
					Error       string       `json:"error"`
					FieldErrors []FieldError `json:"field_errors"`
				}{s.Info(), "config rejected; session created without a candidate", ve.Fields})
				return
			}
			writeErr(w, err)
			return
		}
	}
	w.Header().Set("Location", "/sessions/"+s.ID())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Info())
}

func (a *API) handleInfo(w http.ResponseWriter, r *http.Request) {
	if s, ok := a.session(w, r); ok {
		writeOK(w, struct {
			SessionInfo
			History []CommitEntry `json:"history,omitempty"`
		}{s.Info(), s.Store().History()})
	}
}

func (a *API) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := a.svc.DeleteSession(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (a *API) handleStage(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	var cfg Config
	if err := decodeBody(w, r, &cfg); err != nil {
		writeErr(w, fmt.Errorf("bad config body: %w", err))
		return
	}
	if err := s.StageCandidate(cfg); err != nil {
		writeErr(w, err)
		return
	}
	writeOK(w, struct {
		Staged bool   `json:"staged"`
		Config Config `json:"config"`
	}{true, cfg.WithDefaults()})
}

func (a *API) handleGetCandidate(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	cfg, ok := s.Store().Candidate()
	if !ok {
		writeErr(w, ErrNoCandidate)
		return
	}
	writeOK(w, cfg)
}

func (a *API) handleDiscard(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	s.Store().DiscardCandidate()
	w.WriteHeader(http.StatusNoContent)
}

// handleDryRun evaluates the §4.1 analytic model against the candidate
// (or, with ?config=running, the running config) at the offered load in
// ?rho=. No engine cycles run.
func (a *API) handleDryRun(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	var cfg Config
	var have bool
	if r.URL.Query().Get("config") == "running" {
		cfg, have = s.Store().Running()
		if !have {
			writeErr(w, ErrNoRunning)
			return
		}
	} else {
		cfg, have = s.Store().Candidate()
		if !have {
			writeErr(w, ErrNoCandidate)
			return
		}
	}
	rho := 0.0
	if q := r.URL.Query().Get("rho"); q != "" {
		v, err := strconv.ParseFloat(q, 64)
		if err != nil {
			writeErr(w, fmt.Errorf("bad rho %q: %w", q, err))
			return
		}
		rho = v
	}
	writeOK(w, cfg.DryRun(rho))
}

func (a *API) handleCommit(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	e, err := s.CommitCandidate(r.URL.Query().Get("comment"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeOK(w, e)
}

func (a *API) handleRollback(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	e, err := s.RollbackRunning(r.URL.Query().Get("comment"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeOK(w, e)
}

func (a *API) handleGetRunning(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	cfg, ok := s.Store().Running()
	if !ok {
		writeErr(w, ErrNoRunning)
		return
	}
	writeOK(w, cfg)
}

func (a *API) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s, ok := a.session(w, r); ok {
		writeOK(w, struct {
			History []CommitEntry `json:"history"`
		}{s.Store().History()})
	}
}

func (a *API) handleStart(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	if err := s.StartRun(); err != nil {
		writeErr(w, err)
		return
	}
	writeOK(w, s.Info())
}

func (a *API) handlePause(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	if err := s.Pause(); err != nil {
		writeErr(w, err)
		return
	}
	writeOK(w, s.Info())
}

func (a *API) handleStep(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	n := int64(1)
	if q := r.URL.Query().Get("cycles"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			writeErr(w, fmt.Errorf("bad cycles %q: %w", q, err))
			return
		}
		n = v
	}
	ran, err := s.StepCycles(n)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeOK(w, struct {
		Ran  int64       `json:"ran"`
		Info SessionInfo `json:"session"`
	}{ran, s.Info()})
}

func (a *API) handleReset(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	if err := s.ResetMachine(); err != nil {
		writeErr(w, err)
		return
	}
	writeOK(w, s.Info())
}

// handleReport returns the machine's Table-1 report as indented JSON —
// the exact bytes `ultrasim` would print for the same config and
// program (the serve-smoke equivalence check relies on this).
func (a *API) handleReport(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	b, err := s.ReportJSON()
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

// handleTelemetry delegates the rest of a session's URL space to its
// live feed server: /sessions/{id}/metrics, /snapshot.json,
// /events?follow=1, /healthz, /trace/flight, /profile.
func (a *API) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	http.StripPrefix("/sessions/"+s.ID(), s.LiveHandler()).ServeHTTP(w, r)
}
