// Package serve is the multi-tenant simulation service behind
// cmd/ultraserve: many concurrent Ultracomputer simulations ("sessions")
// sharing one process, one scheduler worker budget, and one HTTP
// surface — the paper's shared-machine premise made literal.
//
// Three layers:
//
//   - Session manager (session.go, scheduler.go): each session owns at
//     most one machine instance, driven in bounded round-robin cycle
//     slices by a fixed pool of scheduler workers. Per-session quotas
//     (cycles, PEs, network ports, memory words) and service-level
//     admission control (session cap, 503 past it) bound what any
//     tenant can take.
//     Graceful drain interrupts every slice, publishes each session's
//     final telemetry State, and stops the workers.
//
//   - Validated config store (config.go, store.go): machine configs are
//     first-class JSON objects, every field error reported at once at
//     candidate-stage time. The simulator's fields are checked by the
//     packages that own them (network.Bounds, machine.Bounds), which
//     also own their defaults; config.go composes them and checks only
//     local_words, cache, limit, sample_every and the program. Each session
//     keeps a staged candidate, the running config its machine is built
//     from, and a bounded append-only commit history; CommitCandidate
//     promotes candidate → running, RollbackRunning restores the
//     previous running config as a fresh commit. Dry-run evaluates the
//     paper's §4.1 closed form (predicted transit/round-trip time,
//     saturation) against a config before a single cycle runs. The same
//     object is cmd/ultrasim's run description — its machine flags are
//     bound to the config's fields (Config.RegisterFlags), `-config`
//     supplies their defaults — and Config.Build is the one
//     construction path for sessions, files and flags alike.
//
//   - HTTP API (api.go): REST over the above, plus each session's live
//     telemetry (internal/obs/live feed server) mounted under the
//     session's URL.
//
// Endpoints:
//
//	GET    /healthz                            service health + capacity
//	GET    /sessions                           session index
//	POST   /sessions                           create (optional {name, config} body) → 201/413/503
//	GET    /sessions/{id}                      info + commit history
//	DELETE /sessions/{id}                      drain and remove → 204
//	PUT    /sessions/{id}/config/candidate     stage config → 200/413/422 (field errors)
//	GET    /sessions/{id}/config/candidate     staged candidate → 200/409
//	DELETE /sessions/{id}/config/candidate     discard candidate → 204
//	POST   /sessions/{id}/config/dry-run       §4.1 prediction (?rho=, ?config=running) → 200
//	POST   /sessions/{id}/config/commit        candidate → running (?comment=) → 200/409
//	POST   /sessions/{id}/config/rollback      restore previous running → 200/409
//	GET    /sessions/{id}/config/running       running config → 200/409
//	GET    /sessions/{id}/config/history       commit log
//	POST   /sessions/{id}/start                run (join scheduler round-robin) → 200/409
//	POST   /sessions/{id}/pause                yield within one machine cycle → 200/409
//	POST   /sessions/{id}/step                 advance ?cycles=N synchronously → 200/409
//	POST   /sessions/{id}/reset                discard machine; rebuild at cycle 0 → 200
//	GET    /sessions/{id}/report               machine report JSON (ultrasim-identical bytes)
//	GET    /sessions/{id}/metrics              Prometheus text (per-session feed)
//	GET    /sessions/{id}/snapshot.json        latest published telemetry State
//	GET    /sessions/{id}/events?follow=1      probe-event JSONL, newest ≤ 256 per published State
//	GET    /sessions/{id}/healthz              per-session feed health
//
// Error bodies are JSON: {"error": "...", "field_errors": [{"field",
// "error"}, ...]} with 422 for validation, 409 for state conflicts, 404
// for unknown sessions, 503 for admission rejection or drain, 413 for a
// request body past 1 MiB (nothing is created or staged).
package serve
