GO ?= go

.PHONY: ci fmt build vet lint verify lint-mutants test race fuzz-smoke bench bench-compare bench-pairs bench-guard serve-smoke prof prof-host clean

ci: fmt vet lint verify lint-mutants build race test fuzz-smoke bench-guard serve-smoke prof

# Every Go file is gofmt-clean; any file gofmt would rewrite fails CI.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "fmt: gofmt would rewrite:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis (cmd/ultravet): the host analyzers (see
# `ultravet -list`; lockcheck among them enforces the declared mutex
# discipline module-wide) over every package plus the guest
# coherence/race lint over the shipped assembly examples. The tree is
# expected to be clean: any finding not accepted in source with
# `//ultravet:ok <analyzer> <reason>` fails this target.
lint:
	$(GO) run ./cmd/ultravet ./... examples/asm/*.s internal/coord/guest/*.s

# Prove the analyzers are live: each leg runs one analyzer over seeded
# mutants that it must flag, so an analyzer regression that stops seeing
# any of them fails CI here even though the main tree stays clean.
# lockcheck: re-creations of the three PR 9 review bugs (lost wakeup,
# interrupt store outside the lock, rebuild outside execMu). probegate:
# copies of one PE stall site and one cache site with the Subs.For
# audience guard stripped. detstate: the guest profiler counting a serve
# that Module.Step emits by a walk of its per-word map, a Stepper.Step
# helper stamping time.Now, and a Machine.Step
# ticking each PE on its own goroutine. hotalloc: the switch queue's push
# making its backing array per call, and a phase body building a
# capturing closure per unit. The two guest legs take .s files by path. guest: a plain-store race, a stale cached
# re-read, a cached store never flushed, and (at two network copies) a
# flush that lands after the release. guestmc: the coordination programs
# with one seeded bug each, which deadlock, break a `;mc: final` or break
# a `;mc: noconcur`, so this leg also runs the `;mc:` parser.
lint-mutants:
	@check() { \
		analyzer=$$1; args=$$2; shift 2; \
		out=$$($(GO) run ./cmd/ultravet -enable $$analyzer $$args 2>&1); \
		if [ $$? -eq 0 ]; then \
			echo "lint-mutants: $$analyzer: expected findings, got a clean run"; exit 1; \
		fi; \
		for f in "$$@"; do \
			echo "$$out" | grep -q "/$$f:[0-9:]*: $$analyzer:" || { \
				echo "lint-mutants: $$analyzer: seeded mutant $$f not flagged"; \
				echo "$$out"; exit 1; }; \
		done; \
		echo "lint-mutants: $$analyzer: all $$# seeded mutants flagged"; \
	}; \
	t=internal/lint/testdata; \
	check lockcheck internal/lint/lockcheck/testdata/src/pr9mutants \
		lostwakeup.go interruptstore.go rebuildrace.go && \
	check probegate internal/lint/probegate/testdata/src/guardmutants \
		stall.go cache.go && \
	check detstate internal/lint/detstate/testdata/src/stepmutants \
		mapserve.go stamp.go spawn.go && \
	check hotalloc internal/lint/hotalloc/testdata/src/allocmutants \
		push.go phase.go && \
	check guest "-copies 2 $$t/racy.s $$t/stale.s $$t/handoff_noflush.s $$t/lateflush.s" \
		racy.s stale.s handoff_noflush.s lateflush.s && \
	check guestmc "$$t/barrier_dropped_release.s $$t/barrier_off_by_one.s $$t/queue_faa_swapped.s \
		$$t/queue_turn_off_by_one.s $$t/rw_no_recheck.s $$t/handoff_noflush.s" \
		barrier_dropped_release.s barrier_off_by_one.s queue_faa_swapped.s \
		queue_turn_off_by_one.s rw_no_recheck.s handoff_noflush.s

# Exhaustive guest verification (internal/lint/guest/mc): model-check
# every shipped assembly program — the examples and the coord guest
# twins — at 3 PEs, proving the `;mc:` properties plus deadlock and
# lost-update freedom over every interleaving. Wall-clock budget: ~10s
# single-threaded (queue.s at N=3 explores ~980k states in ~5s, rw.s
# ~690k in ~3.5s; everything else is milliseconds — dotproduct.s caps
# itself at N=2 via `;mc: bound`). `make lint` already runs the same
# checker at the cheap N=2 bound as part of the default analyzer set.
verify:
	$(GO) run ./cmd/ultravet -enable guestmc -mc-pes 3 \
		examples/asm/*.s internal/coord/guest/*.s

# The whole tree runs under the race detector: the lock-free
# coordination layers and, since the live telemetry server, the
# copy-on-sample hand-off between the simulation loop and HTTP handlers.
race:
	$(GO) test -race ./...

test:
	$(GO) test ./...

# Native fuzzing, ten seconds a target, of the six places outside
# input enters, of the combining rules, of the open-addressed table, of
# the shared memory built on it, of the request tracer's span storage and of
# two differentials over generated guest programs (internal/isa/isagen,
# which also shrinks a failing program before it is printed). The assembler
# (serve.Config.Program): FuzzAssemble requires that it never panics and
# that whatever assembles survives Disassemble -> Assemble unchanged. The config object (HTTP bodies,
# `ultrasim -config`): FuzzConfig requires that strict decoding, Validate
# and the default quotas never panic and that whatever passes all three
# is inside the ports, PEs and memory bounds. ultrasim's command
# line: FuzzFlagsRoundTrip requires that whatever RegisterFlags parses into
# a valid Config comes back from its JSON file through LoadConfigFile
# unchanged. A span dump
# (`tables -spans`): FuzzReadSpans requires that reading never panics and
# that whatever reads survives write -> read -> write unchanged. A
# profile's JSONL export (`tables -prof`): FuzzReadJSONL requires that
# ReadJSONL never panics and that every error it returns names its line.
# The pprof export has no reader here to fuzz: stock go tool pprof reads
# it (prof.TestStockPprofReadsExport). A `.s` file's `;mc:` lines (`ultravet`,
# `ultrasim -verify`): FuzzParseAnnotations requires that a line appended
# to a small program either fails to parse or yields properties that
# evaluate without a panic and parse again from their source to the same
# value. The combining rules (msg.Combine):
# FuzzCombine requires that a combined pair, and that pair combined again
# with a third request, end in a state some serial order of the requests
# produces (§2.1). Machine.Run against Step: FuzzRunMatchesStep requires
# that a generated 1-3 PE program stopped by Run at a fuzzed cycle stands
# where stepping leaves it. The model checker against the core:
# FuzzDifferentialAgainstCore requires that a generated 1-PE program ends
# with the same registers, private memory and shared memory on mc.step as
# on isa.Core in a machine; its seed corpus is seeds 0..255. The
# open-addressed table (sim.Table): FuzzTable requires that a script of
# puts, updates, gets, deletes and reserves over keys whose probe runs
# collide and wrap leaves the table holding what a Go map holds, with no
# empty slot inside any key's probe run. The simulated shared memory
# built on it (memory.wordTable): FuzzWordTable requires that
# a bank under either hasher, and a module outside a bank, read back what
# a script of writes left, as a Go map does, and that the table holds
# only the words ever written a value other than zero. The request
# tracer's carved span storage: FuzzTracerEmit requires that a random
# stream of inject, hop, combine, decombine and deliver events completes
# every span as plain per-span slices assemble it, trips past the seeded
# room included, and that no snapshot Spans or SlowSpans handed out is
# written again. Plain
# `go test` already runs each seed corpus (every .s file and `;mc:` line
# in the repository, one hot-spot span dump, the differential's seeds, and
# the files under the packages' testdata/fuzz) as unit cases; a failure
# found here is written to that directory and fails every later run until
# fixed.
fuzz-smoke:
	$(GO) test ./internal/isa -run '^$$' -fuzz FuzzAssemble -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzConfig -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzFlagsRoundTrip -fuzztime 10s
	$(GO) test ./internal/obs/reqtrace -run '^$$' -fuzz FuzzReadSpans -fuzztime 10s
	$(GO) test ./internal/obs/prof -run '^$$' -fuzz FuzzReadJSONL -fuzztime 10s
	$(GO) test ./internal/msg -run '^$$' -fuzz FuzzCombine -fuzztime 10s
	$(GO) test ./internal/machine -run '^$$' -fuzz FuzzRunMatchesStep -fuzztime 10s
	$(GO) test ./internal/lint/guest/mc -run '^$$' -fuzz FuzzDifferentialAgainstCore -fuzztime 10s
	$(GO) test ./internal/lint/guest/mc -run '^$$' -fuzz FuzzParseAnnotations -fuzztime 10s
	$(GO) test ./internal/memory -run '^$$' -fuzz FuzzWordTable -fuzztime 10s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzTable -fuzztime 10s
	$(GO) test ./internal/obs/reqtrace -run '^$$' -fuzz FuzzTracerEmit -fuzztime 10s

# The repository's benchmark (bench/README.md, BENCHMARK.json): all six
# workloads, untraced, one full JSON record a line on standard output.
# Redirect it to keep a side of a comparison: make bench > NEW.jsonl
bench:
	@$(GO) run ./bench -workload all -json

# Compare two files of `make bench` records: better / worse / same /
# unresolved per metric and workload, judged against each metric's bound
# and the spread of the runs.   make bench-compare OLD=old.jsonl NEW=new.jsonl
bench-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make bench-compare OLD=old.jsonl NEW=new.jsonl"; exit 2; }
	$(GO) run ./bench -compare $(OLD) $(NEW)

# The paired protocol of EXPERIMENTS.md for one workload: this checkout
# against revision PARENT, N alternating pairs (which side runs first
# flips every pair), a fresh process per run, 18 s untraced, seed
# 1000 + 7·i for pair i. The parent's tree is unpacked under .bench_build/
# and each side is built by its own bench/run.sh, so nothing is written
# outside the checkout and nothing is fetched. Every run's -json record is
# appended to .bench_build/$(W).OLD.jsonl / .NEW.jsonl; the per-pair list
# and the comparison follow. Run it on a quiet host.
#   make bench-pairs PARENT=HEAD~1 W=net-uniform [N=10]
N ?= 10
bench-pairs:
	@test -n "$(PARENT)" -a -n "$(W)" || { echo "usage: make bench-pairs PARENT=<rev> W=<workload> [N=10]"; exit 2; }
	@set -eu; root=$$PWD; old=$$root/.bench_build/parent; \
	rm -rf "$$old"; mkdir -p "$$old"; \
	git archive "$(PARENT)" | tar -x -C "$$old"; \
	: > "$$root/.bench_build/$(W).OLD.jsonl"; : > "$$root/.bench_build/$(W).NEW.jsonl"; \
	cost() { sed -n '$$s/.*"host_cost_per_cycle":{"value":\([0-9.e+-]*\).*/\1/p' "$$root/.bench_build/$(W).$$1.jsonl"; }; \
	pairs=; i=1; while [ $$i -le $(N) ]; do \
		if [ $$((i % 2)) -eq 1 ]; then order="OLD NEW"; else order="NEW OLD"; fi; \
		for side in $$order; do \
			if [ $$side = OLD ]; then dir=$$old; else dir=$$root; fi; \
			(cd "$$dir" && sh bench/run.sh --workload $(W) --seed $$((1000 + 7 * i)) --seconds 18 --trace 0 -json) \
				| sed -n 1p >> "$$root/.bench_build/$(W).$$side.jsonl"; \
		done; \
		pair=$$(printf '%.4g/%.4g' "$$(cost OLD)" "$$(cost NEW)"); pairs="$$pairs $$pair"; \
		echo "pair $$i of $(N): host_cost_per_cycle parent/this change $$pair"; \
		i=$$((i + 1)); \
	done; \
	echo "$(W) host_cost_per_cycle, parent/this change in pair order:$$pairs"; \
	$(GO) run ./bench -compare "$$root/.bench_build/$(W).OLD.jsonl" "$$root/.bench_build/$(W).NEW.jsonl"

# Where the host's time goes in one benchmark op: CPU-profile it as a
# plain Go benchmark (bench_test.go: NetUniformOp, NetHotspotOp,
# NetObservedOp, GuestSpmdOp and GuestIdealOp are bench/'s net-uniform,
# net-hotspot, net-observed, guest-spmd and guest-ideal ops;
# ServeSessionOp is one serve-lifecycle session without the HTTP) and
# print the top of the profile.
# Every "share of a CPU profile" in EXPERIMENTS.md and ROADMAP.md comes
# from here. Binary and profile stay under .bench_build/.
#   make prof-host [B=NetHotspotOp|NetObservedOp|GuestSpmdOp|GuestIdealOp|ServeSessionOp]
B ?= NetUniformOp
prof-host:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '$(B)$$' -benchtime 200x -cpuprofile .bench_build/host.prof -o .bench_build/host.test .
	$(GO) tool pprof -top -nodecount 25 .bench_build/host.test .bench_build/host.prof

# Guard the allocation contract: a disabled (nil) probe must add zero
# allocations to the hot paths, an enabled ring recorder and a served
# run's feed must not allocate per event, an attached request tracer at
# sampling rate 0 must keep Machine.Step allocation-free, one at rate 1
# must trace a request on recycled storage once its ring has wrapped, the
# network under steady traffic must stay inside its budget (the
# growth-only tail of its queues), and what is built per run is sized by
# its reader: a served kit without -trace under 64 KB whatever ring
# capacity its caller names, a 16-PE session's build and kit under 196 KiB
# (no more at max_outstanding 1<<30), a cache within four allocations and a
# machine's caches in the same four. Private memory is paid for by the page
# stored to: a core under 1 KiB (20 KiB at 1 Mi words), Load of the
# benchmark's 64-PE shape under 640 KiB, with no object per PE and no more
# bytes at MaxOutstanding 1<<30, and neither lw/sw over touched pages nor
# a fresh PNI's outstanding-request list at its limit allocates.
# And a message costs the sweep what it must: at most 2.25 link pumps per
# message per link crossed at p = 0.2 (a count, not a time, so the host
# cannot move it). An observed event is 72 bytes, which the compiler
# copies inline into every consumer. A Go guest's blocking operations
# allocate nothing once its tag table has grown. One benchmark-shaped
# trace.Run op (uniform, hot-spot, profiled, traced at rate 1, and
# observed as net-observed attaches it) stays under an object budget 5 %
# above today's count, which its seed fixes on every host; a profiler
# costs as many objects to build at 64 PEs as at 4 096; a 64-module
# bank and 10 000 distinct writes allocate O(log words) objects, one
# table for the bank, not a map per module. The benchmark
# kernel's cached traffic (clds/csts, cflu, crel, fills and write-backs)
# allocates nothing, each core's write-back queue starting in its carved
# room. And a PE
# retires the private instructions of the guest-ideal kernel in bursts:
# at most 0.04 Core.Tick calls per retired instruction (a count; ≥ 1
# when every instruction takes its own tick). The cost ledger
# (ledger_test.go, testdata/ledger.golden) holds each root benchmark op and
# Load of the 64-PE guest shape to its objects and bytes, which may only
# fall, and to its simulated counts, which may not move.
bench-guard:
	$(GO) test . ./internal/obs/ ./internal/obs/reqtrace/ ./internal/obs/prof/ ./internal/obs/live/ ./internal/machine/ ./internal/network/ ./internal/serve/ ./internal/cache/ ./internal/isa/ ./internal/pe/ ./internal/trace/ ./internal/memory/ -run 'ZeroAlloc|AllocBudget|PumpBudget|EventSize|TickBudget' -count=1 -v

# Guest-profiler smoke: profile queue.s end to end in both export
# formats. Stock go tool pprof reads the gzipped protobuf and must name a
# queue.s label span among the top functions; tables -prof renders the
# JSONL export and exits 1 on a profile ReadJSONL finds inconsistent.
prof: build
	$(GO) run ./cmd/ultrasim -pes 8 -reqtrace 1 \
		-prof-out /tmp/ultraprof.pb.gz examples/asm/queue.s > /dev/null
	$(GO) run ./cmd/ultrasim -pes 8 -reqtrace 1 \
		-prof-out /tmp/ultraprof.jsonl examples/asm/queue.s > /dev/null
	$(GO) tool pprof -top /tmp/ultraprof.pb.gz > /tmp/ultraprof.top
	grep -q 'queue.s:' /tmp/ultraprof.top
	$(GO) run ./cmd/tables -prof /tmp/ultraprof.jsonl > /dev/null

# Multi-tenant service smoke (internal/serve): start ultraserve on a
# loopback port, drive two concurrent sessions through the full API
# lifecycle (create+stage, §4.1 dry-run, commit, start), wait for both,
# and require each session's /report bytes to be identical to a
# standalone in-process run of the same config — the session-isolation
# and determinism guarantee, checked end to end over real HTTP. Then the
# abuse scenarios: a session that spins to its cycle limit sampling every
# cycle must not grow the service's heap with its samples.
serve-smoke: build
	$(GO) run ./cmd/ultraserve -smoke

clean:
	rm -f /tmp/ultraprof.pb.gz /tmp/ultraprof.jsonl /tmp/ultraprof.top
