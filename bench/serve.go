package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"ultracomputer/internal/serve"
	"ultracomputer/internal/sim"
)

// The four session shapes of serve-lifecycle: k=2, 4 stages (16 ports),
// 4–16 PEs, about 1 k–5 k cycles each, so that simulation is under half
// of a lifecycle and validation, assembly, Build, scheduling and HTTP
// carry the rest. One op is a round: each shape once, in an order drawn
// from the seed. A round rather than a single lifecycle is the timed
// unit because the median over a four-way mix of durations sits in the
// gap between two shapes and jumps with the noise; the round is
// unimodal.
var serveShapes = []struct {
	pes   int
	iters int64
}{{4, 144}, {8, 96}, {12, 64}, {16, 32}}

const (
	servePoll  = 2 * time.Millisecond
	serveLimit = 5_000_000
)

// Span names of the client side, one per route.
const (
	spLifecycle = "serve.lifecycle"
	spCreate    = "serve.create"
	spCommit    = "serve.commit"
	spStart     = "serve.start"
	spPoll      = "serve.poll"
	spRunWait   = "serve.run_wait"
	spReportGet = "serve.report"
	spDelete    = "serve.delete"
)

// serveClients is the closed loop's width: every caller waits for its
// own report, so load is sized to the host, not to a rate.
func serveClients() int { return min(2, runtime.NumCPU()) }

type serveShape struct {
	body   []byte // POST /sessions body: name + config staged in the call
	want   []byte // standalone report bytes for the same config
	cycles int64
}

// serveInstance is one set-up of serve-lifecycle: a live loopback
// service, the seed's four configs and their standalone reports.
type serveInstance struct {
	svc     *serve.Service
	hs      *http.Server
	base    string
	clients []*http.Client
	shapes  []serveShape
	order   [][]int // per client: the round's shape order

	validateMs, buildMs, standaloneMs float64
}

func setupServe(seed uint64) (instance, error) {
	in := &serveInstance{svc: serve.NewService(serve.Limits{})}
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()
	hs, bound, err := serve.NewAPI(in.svc).Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.hs, in.base = hs, "http://"+bound

	rng := sim.NewRand(seed)
	for i, sh := range serveShapes {
		cfg := serve.Config{
			Name: fmt.Sprintf("bench-%d", i), K: 2, Stages: 4, PEs: sh.pes,
			Limit:   serveLimit,
			Cache:   &serve.CacheConfig{Sets: guestCache.Sets, Ways: guestCache.Ways, BlockWords: guestCache.BlockWords},
			Program: drawKernel(rng.Uint64(), sh.iters).text(),
		}
		body, err := json.Marshal(struct {
			Name   string        `json:"name"`
			Config *serve.Config `json:"config"`
		}{cfg.Name, &cfg})
		if err != nil {
			return nil, err
		}
		// The reference: the same config validated, built and run
		// standalone — what the serve-smoke guarantee compares with.
		t0 := time.Now()
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("shape %d: %w", i, err)
		}
		t1 := time.Now()
		m, _, eng, err := cfg.Build()
		if err != nil {
			return nil, fmt.Errorf("shape %d: %w", i, err)
		}
		t2 := time.Now()
		_, done := m.Run(serveLimit)
		want, jerr := m.Report().JSON()
		t3 := time.Now()
		eng.Close()
		if !done || jerr != nil {
			return nil, fmt.Errorf("shape %d: standalone run done=%v err=%v", i, done, jerr)
		}
		in.validateMs += float64(t1.Sub(t0)) / 1e6 / float64(len(serveShapes))
		in.buildMs += float64(t2.Sub(t1)) / 1e6 / float64(len(serveShapes))
		in.standaloneMs += float64(t3.Sub(t1)) / 1e6 / float64(len(serveShapes))
		in.shapes = append(in.shapes, serveShape{body: body, want: want, cycles: m.Cycles()})
	}

	for c := 0; c < serveClients(); c++ {
		// One keep-alive connection per client.
		in.clients = append(in.clients, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout:   30 * time.Second,
		})
		order := make([]int, len(in.shapes))
		for i := range order {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], i
		}
		in.order = append(in.order, order)
	}
	// Warm-up round, discarded.
	if _, err := in.op(0, nil); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	ok = true
	return in, nil
}

func (in *serveInstance) close() {
	for _, c := range in.clients {
		c.CloseIdleConnections()
	}
	if in.hs != nil {
		in.hs.Close()
	}
	in.svc.Drain()
}

// call performs one API call and returns the body; any status other
// than want is an error (and so an op failure).
func (in *serveInstance) call(c int, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, in.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := in.clients[c].Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(b))
	}
	return b, nil
}

// lifecycle drives one session from create to delete and checks its
// report bytes against the standalone run.
func (in *serveInstance) lifecycle(c int, sh serveShape, sp *spanRec) error {
	life := sp.begin(spLifecycle, -1)
	defer sp.end(life)

	id := sp.begin(spCreate, life)
	b, err := in.call(c, http.MethodPost, "/sessions", sh.body, http.StatusCreated)
	sp.end(id)
	if err != nil {
		return err
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(b, &info); err != nil {
		return fmt.Errorf("create: %w", err)
	}
	path := "/sessions/" + info.ID
	// Whatever happens next, the session must not outlive the op: the
	// service admits only Limits.MaxSessions of them.
	deleted := false
	defer func() {
		if !deleted {
			_, _ = in.call(c, http.MethodDelete, path, nil, http.StatusNoContent)
		}
	}()

	id = sp.begin(spCommit, life)
	_, err = in.call(c, http.MethodPost, path+"/config/commit", nil, http.StatusOK)
	sp.end(id)
	if err != nil {
		return err
	}
	id = sp.begin(spStart, life)
	_, err = in.call(c, http.MethodPost, path+"/start", nil, http.StatusOK)
	sp.end(id)
	if err != nil {
		return err
	}

	wait := sp.begin(spRunWait, life)
	for deadline := time.Now().Add(20 * time.Second); ; {
		id = sp.begin(spPoll, wait)
		b, err := in.call(c, http.MethodGet, path, nil, http.StatusOK)
		sp.end(id)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &info); err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		if info.State == serve.StateDone {
			break
		}
		if info.State != serve.StateRunning {
			return fmt.Errorf("session %s is %s: %s", info.ID, info.State, info.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("session %s still running at the deadline", info.ID)
		}
		time.Sleep(servePoll)
	}
	sp.end(wait)

	id = sp.begin(spReportGet, life)
	got, err := in.call(c, http.MethodGet, path+"/report", nil, http.StatusOK)
	sp.end(id)
	if err != nil {
		return err
	}
	id = sp.begin(spDelete, life)
	_, err = in.call(c, http.MethodDelete, path, nil, http.StatusNoContent)
	sp.end(id)
	deleted = true
	if err != nil {
		return err
	}
	if !bytes.Equal(got, sh.want) {
		return fmt.Errorf("session report differs from the standalone run (%d vs %d bytes)", len(got), len(sh.want))
	}
	return nil
}

func (in *serveInstance) op(c int, sp *spanRec) (opResult, error) {
	var cycles int64
	t := time.Now()
	for _, i := range in.order[c] {
		if err := in.lifecycle(c, in.shapes[i], sp); err != nil {
			return opResult{}, err
		}
		cycles += in.shapes[i].cycles
	}
	return opResult{cycles: cycles, wall: time.Since(t)}, nil
}

func (in *serveInstance) layers(tr *spanRec, m map[string]float64) error {
	lives := tr.count[spLifecycle]
	if lives == 0 {
		return fmt.Errorf("no traced op ran")
	}
	m["serve.create_ms"] = tr.ms(spCreate)
	m["serve.commit_ms"] = tr.ms(spCommit)
	m["serve.start_ms"] = tr.ms(spStart)
	m["serve.poll_ms"] = tr.ms(spPoll)
	m["serve.polls"] = float64(tr.count[spPoll]) / float64(lives)
	m["serve.report_ms"] = tr.ms(spReportGet)
	m["serve.delete_ms"] = tr.ms(spDelete)
	// run_wait is start's 200 to the first poll that reads done: its
	// polls and the sleeps between them, so self + children here.
	runWait := float64(tr.self[spRunWait]+tr.self[spPoll]) / float64(lives) / 1e6
	m["serve.run_wait_ms"] = runWait
	m["serve.sched_efficiency"] = in.standaloneMs / runWait
	m["serve.config_validate_ms"] = in.validateMs
	m["serve.build_ms"] = in.buildMs
	total := tr.self[spLifecycle]
	for _, n := range []string{spCreate, spCommit, spStart, spPoll, spRunWait, spReportGet, spDelete} {
		total += tr.self[n]
	}
	m["serve.lifecycle_ms"] = float64(total) / float64(lives) / 1e6
	var cycles int64
	for _, sh := range in.shapes {
		cycles += sh.cycles
	}
	m["sim.cycles"] = float64(cycles) / float64(len(in.shapes))
	return nil
}
