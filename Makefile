GO ?= go

.PHONY: ci fmt build vet lint verify lint-mutants test race fuzz-smoke bench bench-compare bench-pairs bench-guard equivalence serve-smoke prof prof-host clean

ci: fmt vet lint verify lint-mutants build race test fuzz-smoke equivalence bench-guard serve-smoke prof

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
# audience guard stripped. detstate: memory.Module.Step serving by a map
# walk, and a Stepper.Step helper stamping time.Now. hotalloc: the switch
# queue's push making its backing array per call, and a phase body
# building a capturing closure per unit. sharecheck: phase bodies bumping
# a package-level counter and inserting into a captured map.
lint-mutants:
	@check() { \
		analyzer=$$1; dir=$$2; shift 2; \
		out=$$($(GO) run ./cmd/ultravet -enable $$analyzer $$dir 2>&1); \
		if [ $$? -eq 0 ]; then \
			echo "lint-mutants: $$analyzer: expected findings, got a clean run"; exit 1; \
		fi; \
		for f in "$$@"; do \
			echo "$$out" | grep -q "$$f.*$$analyzer" || { \
				echo "lint-mutants: $$analyzer: seeded mutant $$f not flagged"; \
				echo "$$out"; exit 1; }; \
		done; \
		echo "lint-mutants: $$analyzer: all $$# seeded mutants flagged"; \
	}; \
	check lockcheck internal/lint/lockcheck/testdata/src/pr9mutants \
		lostwakeup.go interruptstore.go rebuildrace.go && \
	check probegate internal/lint/probegate/testdata/src/guardmutants \
		stall.go cache.go && \
	check detstate internal/lint/detstate/testdata/src/stepmutants \
		mapserve.go stamp.go && \
	check hotalloc internal/lint/hotalloc/testdata/src/allocmutants \
		push.go phase.go && \
	check sharecheck internal/lint/sharecheck/testdata/src/phasemutants \
		counter.go mapinsert.go

# Exhaustive guest verification (internal/lint/guest/mc): model-check
# every shipped assembly program — the examples and the coord guest
# twins — at 3 PEs, proving the `;mc:` properties plus deadlock and
# lost-update freedom over every interleaving. Wall-clock budget: ~25s
# single-threaded (queue.s at N=3 explores ~980k states in ~13s, rw.s
# ~690k in ~8s; everything else is milliseconds — dotproduct.s caps
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

# Native fuzzing, ten seconds a target, of the four places outside
# input enters and of the combining rules. The assembler (serve.Config.Program): FuzzAssemble
# requires that it never panics and that whatever assembles survives
# Disassemble -> Assemble unchanged. The config object (HTTP bodies,
# `ultrasim -config`): FuzzConfig requires that strict decoding, Validate
# and the default quotas never panic and that whatever passes all three
# is inside the workers, ports, PEs and memory bounds. A span dump
# (`tables -spans`): FuzzReadSpans requires that reading never panics and
# that whatever reads survives write -> read -> write unchanged. A
# profile (`tables -prof`): FuzzParsePprof requires that ParsePprof
# never panics and that what WritePprof writes parses back to the
# samples it was written from. The combining rules (msg.Combine):
# FuzzCombine requires that a combined pair, and that pair combined again
# with a third request, end in a state some serial order of the requests
# produces (§2.1). Plain `go test` already runs each seed corpus (every .s
# file in the repository, one hot-spot span dump, and the files under the
# packages' testdata/fuzz) as unit cases; a failure found here is written to that
# directory and fails every later run until fixed.
fuzz-smoke:
	$(GO) test ./internal/isa -run '^$$' -fuzz FuzzAssemble -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzConfig -fuzztime 10s
	$(GO) test ./internal/obs/reqtrace -run '^$$' -fuzz FuzzReadSpans -fuzztime 10s
	$(GO) test ./internal/obs/prof -run '^$$' -fuzz FuzzParsePprof -fuzztime 10s
	$(GO) test ./internal/msg -run '^$$' -fuzz FuzzCombine -fuzztime 10s

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

# Engine equivalence: the serial and parallel engines must produce
# byte-identical traces, metrics, reports and final state. Run under
# the race detector (catches unsynchronized shard writes) and again
# pinned to a single P (proves the worker barrier cannot deadlock
# without real parallelism).
equivalence:
	$(GO) test -race -count=1 -run 'EngineEquivalence|RunEngineEquivalence' ./internal/machine/ ./internal/trace/
	GOMAXPROCS=1 $(GO) test -count=1 -run 'EngineEquivalence|RunEngineEquivalence' ./internal/machine/ ./internal/trace/

# Guard the allocation contract: a disabled (nil) probe must add zero
# allocations to the hot paths, an enabled ring recorder and a served
# run's feed must not allocate per event, an attached request tracer at
# sampling rate 0 must keep Machine.Step allocation-free, one at rate 1
# must trace a request on recycled storage once its ring has wrapped, the
# network under steady traffic must stay inside its budget (the
# growth-only tail of its queues), and what is built per run is sized by
# its reader: a served kit without -trace under 64 KB whatever ring
# capacity its caller names, a 16-PE session's build and kit under 213 KiB,
# a cache within five allocations. Private memory is paid for by the page
# stored to: a core under 1 KiB (20 KiB at 1 Mi words), Load of the
# benchmark's 64-PE shape under 1 MiB, and neither lw/sw over touched
# pages nor the PNI's outstanding-request list at its limit allocates.
# And a message costs the sweep what it must: at most 2.25 link pumps per
# message per link crossed at p = 0.2 (a count, not a time, so the host
# cannot move it). An observed event is 72 bytes, which the compiler
# copies inline into every consumer. A Go guest's blocking operations
# allocate nothing once its tag table has grown.
bench-guard:
	$(GO) test ./internal/obs/ ./internal/obs/reqtrace/ ./internal/obs/prof/ ./internal/obs/live/ ./internal/machine/ ./internal/network/ ./internal/serve/ ./internal/cache/ ./internal/isa/ ./internal/pe/ -run 'ZeroAlloc|AllocBudget|PumpBudget|EventSize' -count=1 -v

# Guest-profiler smoke: profile queue.s end to end in both export
# formats, then validate each round-trips non-empty through its own
# reader (the pprof path re-parses the gzipped protobuf wire format go
# tool pprof consumes).
prof: build
	$(GO) run ./cmd/ultrasim -pes 8 -reqtrace 1 \
		-prof-out /tmp/ultraprof.pb.gz examples/asm/queue.s > /dev/null
	$(GO) run ./cmd/ultrasim -pes 8 -reqtrace 1 \
		-prof-out /tmp/ultraprof.jsonl examples/asm/queue.s > /dev/null
	$(GO) run ./cmd/tables -prof /tmp/ultraprof.pb.gz -prof-check
	$(GO) run ./cmd/tables -prof /tmp/ultraprof.jsonl -prof-check

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
	rm -f /tmp/ultraprof.pb.gz /tmp/ultraprof.jsonl
