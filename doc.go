// Package ultracomputer is a full reproduction, in pure Go, of the
// system described in "The NYU Ultracomputer — Designing a MIMD,
// Shared-Memory Parallel Machine" (Gottlieb, Grishman, Kruskal,
// McAuliffe, Rudolph, Snir): a shared-memory MIMD machine whose N
// processing elements reach N memory modules through a message-switched,
// pipelined Omega network whose switches combine concurrent requests —
// including fetch-and-add — to the same memory cell.
//
// The repository contains:
//
//   - internal/msg      — request/reply messages and the fetch-and-phi
//     combining algebra
//   - internal/network  — the combining Omega network (switches, systolic
//     ToMM queues, wait buffers, multiple copies)
//   - internal/memory   — memory modules, the MNI fetch-and-phi ALU, and
//     address hashing
//   - internal/cache    — the write-back PE cache with release/flush
//   - internal/pe       — processing elements: PNI pipelining rules,
//     register-locking cores, coroutine-backed programs
//   - internal/isa      — a small assembly language, assembler and
//     interpreter for instruction-level simulation
//   - internal/machine  — the assembled machine and its measurements
//   - internal/para     — the idealized paracomputer (goroutines as PEs)
//   - internal/coord    — completely parallel coordination algorithms:
//     TIR/TDR, the appendix queue, barriers, readers-writers, scheduler
//   - internal/analytic — the §4.1 queueing model (Figure 7) and the
//     §5.0 TRED2 efficiency model (Tables 2–3)
//   - internal/apps     — parallel TRED2, multigrid Poisson, a 2-D
//     weather PDE, Monte Carlo particle tracking, shortest paths and
//     matrix multiply
//   - internal/eigen    — Jacobi and Sturm-bisection eigensolvers that
//     validate TRED2's output spectrum
//   - internal/trace    — synthetic traffic generation and measurement
//   - internal/experiments — the paper's tables and figures, end to end
//
// The benchmarks in bench_test.go regenerate every table and figure of
// the paper's evaluation; see EXPERIMENTS.md for paper-vs-measured
// results and cmd/{netperf,tables,ultrasim} for the command-line tools.
package ultracomputer
