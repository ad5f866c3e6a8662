GO ?= go

# Transport fault-injection tests drive real TCP rounds; the timeout guard
# makes a hung test (e.g. a worker that never replies) fail fast instead of
# wedging CI at the default 10-minute package deadline.
TESTFLAGS ?= -timeout 120s

# The race detector multiplies the figure-reproduction tests in the root
# package by ~10x (the full root suite runs minutes under -race), so the
# race-enabled targets carry their own, larger guard.
RACE_TESTFLAGS ?= -timeout 900s

.PHONY: build test vet fmt race check deadcode expolint evalcpu bench bench-all bench-smoke benchgate benchpair chaos soak-restart trace-demo fleet-demo fuzz loc

build:
	$(GO) build ./...

# loc prints the non-test and test Go lines of every package (one directory
# each) and its exported identifiers (the line count of `go doc -short`,
# zero for a command), with totals, then the flag definitions of every
# command (each flag.Bool, flag.StringVar, flag.Var, flag.Func, … call in
# its non-test files) — the before/after numbers a design change reports.
# bench/ is its own module and is left out.
FLAG_DEF := flag\.((Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Text)(Var)?|Var|Func|BoolFunc)\(
loc:
	@find . -path ./bench -prune -o -name '*.go' -print | xargs wc -l | awk ' \
		$$2 == "total" { next } \
		{ d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); if (d == "") d = "."; \
		  if ($$2 ~ /_test\.go$$/) { t[d] += $$1; tt += $$1 } else { n[d] += $$1; nt += $$1 }; seen[d] = 1 } \
		END { printf "%-24s %8s %8s %8s\n", "package", "non-test", "test", "exported"; \
		      for (d in seen) { cmd = "$(GO) doc -short ./" d " 2>/dev/null | wc -l"; cmd | getline e; close(cmd); et += e; \
		        printf "%-24s %8d %8d %8d\n", d, n[d], t[d], e | "sort" }; close("sort"); \
		      printf "%-24s %8d %8d %8d\n", "total", nt, tt, et }'
	@printf '\n%-24s %8s\n' command flags; t=0; \
	for d in cmd/*/; do \
		n=$$(ls $$d*.go | grep -v '_test\.go$$' | xargs cat | grep -v '^[[:space:]]*//' | grep -oE '$(FLAG_DEF)' | wc -l); \
		t=$$((t + n)); printf '%-24s %8d\n' "$${d%/}" $$n; \
	done; printf '%-24s %8d\n' total $$t

test:
	$(GO) test $(TESTFLAGS) ./...

# vet also holds the one-wire line: encoding/gob is the checkpoint payload
# (internal/checkpoint), never a second wire format through a side door.
# The arm64 pass type-checks the !amd64 build, so an assembly kernel
# declared without its simd_other.go stub fails here, not on another
# architecture.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	@out=$$(grep -rl --include='*.go' --exclude='*_test.go' '"encoding/gob"' internal/transport cmd examples); \
		if [ -n "$$out" ]; then echo "encoding/gob imported on the wire side:"; echo "$$out"; exit 1; fi

# deadcode fails, listing them, on functions that no binary links: it
# builds every cmd/ and examples/ main plus bench/ with inlining off and
# diffs their `go tool nm` symbols against the functions declared in
# non-test files. The allowlist, each entry with its reason, is in
# cmd/deadcode. Delete an unreachable function, or move a test reference
# into the _test.go that uses it.
deadcode:
	$(GO) run ./cmd/deadcode

# fmt fails (listing the offenders) if any tracked Go file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# race runs the full suite under the race detector — the parallel executor
# and the TCP coordinator (including the transport fault-injection and
# rejoin tests) are the packages that exercise real concurrency.
race:
	$(GO) test -race $(RACE_TESTFLAGS) ./...

# expolint runs every /metrics exposition hygiene test in one fast pass:
# the engine registry golden, the Go runtime series, and the jobs- and
# telemetry-hub WritePrometheus implementations are all held to
# obs.LintExposition (HELP/TYPE on every family, counters end _total,
# gauges don't). The same tests run inside `race`; this target is the
# quick local gate after touching any exposition writer.
expolint:
	$(GO) test $(TESTFLAGS) -run 'Lint|Exposition|Prometheus' \
		./internal/obs/ ./internal/jobs/ ./internal/telemetry/

# evalcpu runs the tests of everything that fans out over the process-wide
# helper pool at 1, 2 and 4 logical CPUs under the race detector: the
# kernel fan-out (tensor's Par and Fan tests, and the batched-gradient
# determinism tests of nn and models), the Parallel executor and the
# backend conformance suite, nested fan-out, and engine.Evaluator, which
# spreads loss and accuracy over GOMAXPROCS workers. Each promises numbers
# that do not depend on how many workers there are, which a
# single-GOMAXPROCS `race` pass cannot show. (The pool grows with
# GOMAXPROCS, so one process covers all three.) The LossGrad and Handover
# tests cover the gradients a measurement hands every device for the next
# round, written by whichever worker claims the shard, and the
# stationarity gap folded from them. The second line pins the paper CNN's
# and the convex softmax model's bits at the same three counts with their
# digests on both kernel sets (the fused ReLU + max-pool's oracle sets
# GOMAXPROCS 1 and 2 itself and runs in `test` and `race`). It runs
# without the race detector, which would slow the digests' tables tenfold
# and cannot change a bit. The third line pins the data every task builder
# hands out (TestTaskDataDigest): the synthetic generator draws its
# devices as tasks of one fan-out over the same pool, so it runs at the
# same three counts, under the race detector. The last line runs the
# kernel package under coverage instrumentation, whose build may compile
# the scalar Col2Im loop's add with its operands swapped (as the race build
# does): its tests must hold there too, so `go test -coverpkg=./...` can
# measure them.
evalcpu:
	$(GO) test -race $(RACE_TESTFLAGS) -count=1 -cpu 1,2,4 \
		-run 'Evaluator|PredictBatch|LossGrad|Handover|Parallel|Conformance|Par[A-Z]|Fan|BitDeterministic' \
		./internal/engine/ ./internal/models/ ./internal/nn/ ./internal/tensor/
	$(GO) test $(TESTFLAGS) -count=1 -cpu 1,2,4 -run 'PaperCNNDigest|SoftmaxDigest' ./internal/tensor/
	$(GO) test -race $(RACE_TESTFLAGS) -count=1 -cpu 1,2,4 -run 'TaskDataDigest' .
	$(GO) test $(TESTFLAGS) -count=1 -cover ./internal/tensor/

# bench-smoke compiles and tests the frozen benchmark module. bench/ is its
# own Go module (it imports this one through a replace directive), so the
# root `go build ./...` and `go vet ./...` never see it: without this
# target an internal API change that breaks the benchmark harness would
# only surface when BENCHMARK.json's command next runs.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test $(TESTFLAGS) ./...

# check is the CI gate: formatting, static analysis, the dead-code gate,
# the frozen bench module, the exposition lint, the evaluator determinism
# tests across CPU counts, the race-enabled suite, the traced end-to-end
# fedsim run (trace-demo), the real fedserver and fedclient processes of
# fleet-demo, and the benchmark regression gate against the committed
# snapshot. The race-enabled suite replays the FuzzFrameDecode,
# FuzzCheckpointLoad, FuzzChaosParse, FuzzSpecSubmit, FuzzManifestLoad,
# FuzzSeriesQuery, FuzzExp and FuzzSoftmaxHead seed corpora (plain `go
# test` runs f.Add seeds), so every committed decoder regression input,
# every exp-kernel edge argument and every softmax-head edge logit is
# exercised on each CI run; `make fuzz` explores beyond the seeds.
check: fmt vet deadcode bench-smoke expolint evalcpu race trace-demo fleet-demo benchgate

# fuzz runs coverage-guided exploration of the untrusted-byte decoders: the
# wire frames, which sit directly on the network, the checkpoint file and a
# job's manifest, read back from disk after a crash, the chaos schedule,
# read from a user's file, a job spec POSTed to the control plane, decoded,
# defaulted and validated (which generates no data), and the telemetry
# API's from/to/limit range queries. Any input must decode or error —
# never panic; a malformed query is a 400 and a well-formed one returns
# only the rounds it asked for. It also fuzzes tensor.Exp, the vectorised
# exponential of the softmax head, which must equal math.Exp bit for bit
# for any argument, slice length and alignment, and the class-major softmax
# head itself, whose loss and gradient must equal the row-at-a-time
# reference's bits for any logit bits, labels, chunk and class count.
# FUZZ_TIME bounds each target's run (default 30s).
FUZZ_TIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime $(FUZZ_TIME) ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzCheckpointLoad -fuzztime $(FUZZ_TIME) ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzChaosParse -fuzztime $(FUZZ_TIME) ./internal/chaos/
	$(GO) test -run '^$$' -fuzz FuzzSpecSubmit -fuzztime $(FUZZ_TIME) ./internal/jobs/
	$(GO) test -run '^$$' -fuzz FuzzManifestLoad -fuzztime $(FUZZ_TIME) ./internal/jobs/
	$(GO) test -run '^$$' -fuzz FuzzSeriesQuery -fuzztime $(FUZZ_TIME) ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz FuzzExp -fuzztime $(FUZZ_TIME) ./internal/tensor/
	$(GO) test -run '^$$' -fuzz FuzzSoftmaxHead -fuzztime $(FUZZ_TIME) ./internal/models/

# trace-demo runs a short traced experiment and validates that the emitted
# Chrome trace-event JSON still parses and is internally consistent (every
# parent_id resolves), so the Perfetto export format can't silently rot.
TRACE_DEMO_OUT ?= trace-demo.json
trace-demo:
	$(GO) run ./cmd/fedsim -dataset synthetic -alg sarah -rounds 3 -tau 5 \
		-trace-spans $(TRACE_DEMO_OUT) -csv /dev/null
	$(GO) run ./cmd/tracecheck -min-spans 10 $(TRACE_DEMO_OUT)

# fleet-demo runs real fedserver and fedclient processes on loopback for two
# rounds in each shape of the single-job server — flat workers, an
# aggregation tree, leased workers, a leased tree, leased workers under a
# chaos schedule — and fails unless every process exits 0 and the server
# prints its CSV; two fleets of the wrong shape must instead make every
# process exit non-zero (see scripts/fleet-demo.sh). Ports are chosen at
# run time.
fleet-demo:
	GO=$(GO) ./scripts/fleet-demo.sh

# chaos runs the seeded fault-injection suite under the race detector: the
# declarative-schedule conformance tests (bit-identical models across the
# sequential, parallel and TCP backends under crash/flake/delay/corrupt/
# partition faults), the straggler-deadline tests, and the generated-schedule
# soak. CHAOS_SOAK_ROUNDS extends the soak (default 12 rounds), e.g.
#   make chaos CHAOS_SOAK_ROUNDS=200
CHAOS_SOAK_ROUNDS ?=
chaos:
	CHAOS_SOAK_ROUNDS=$(CHAOS_SOAK_ROUNDS) $(GO) test -race $(RACE_TESTFLAGS) -count=1 \
		-run 'Chaos|Straggler|MinReport' ./internal/chaos/ ./internal/engine/ ./internal/transport/

# soak-restart runs the kill-the-coordinator soak: a real fedserver process
# serving the multi-job control plane is SIGKILLed every K rounds of fleet
# progress and restarted on the same -state-dir until every job is DONE;
# each job's durable checkpoint must be bit-identical to an uninterrupted
# run. SOAK_RESTART_ROUNDS is the kill cadence K (the test skips without
# it), e.g.
#   make soak-restart SOAK_RESTART_ROUNDS=5
SOAK_RESTART_ROUNDS ?=
soak-restart:
	SOAK_RESTART_ROUNDS=$(SOAK_RESTART_ROUNDS) $(GO) test -race $(RACE_TESTFLAGS) -count=1 \
		-run SoakRestart -v ./internal/jobs/

# The recorded benchmark set: the engine/ablation hot paths, the set-up cost
# of a ten-device CNN runner (NewRunnerCNN10), plus the MLP's batched
# forward (NNBatchForward32), the transport top-k selector, the wire-frame
# marshal/unmarshal paths, the end-to-end TCP round (exact and topk-delta
# codecs), one server-side measurement of the paper's convex scenario, the
# GEMM kernels and Softmax gradient at the shapes the benchmark's models hit
# (GemmShape*, SoftmaxGradB32), the softmax cross-entropy head of one convex
# step (SoftmaxXent32x10), a full-shard softmax LossGrad at convex100's mean
# shard (SoftmaxLossGradShard), one 32-row softmax prediction
# (SoftmaxPredict32x10), conv1's and the thin conv2's im2col/col2im
# (Im2Col28x28k5, Col2Im28x28k5, Im2Col14x14c4k5, Col2Im14x14c4k5), the
# fused ReLU + max-pool over conv1's output (ReLUMaxPool4x28x28B8) and the
# thin CNN's B = 8 gradient (CNNThinGradB8). bench and benchgate must agree
# on this set, so a benchmark in the snapshot is never silently absent from
# the gate run.
BENCH_PATTERN := RoundAllocs|Ablation|NewRunnerCNN10|NNBatchForward32|TopK|Frame|WireRound|EvaluatorMeasure|GemmShape|SoftmaxGradB32|SoftmaxXent32x10|SoftmaxLossGradShard|SoftmaxPredict32x10|Im2Col28x28k5|Col2Im28x28k5|Im2Col14x14c4k5|Col2Im14x14c4k5|ReLUMaxPool4x28x28B8|CNNThinGradB8
BENCH_PKGS := . ./internal/engine ./internal/nn ./internal/models ./internal/optim ./internal/transport ./internal/tensor

# bench runs the recorded benchmark set three times and snapshots the
# results as BENCH_engine.json (JSONL; one record per output line, raw text
# retained). benchgate budgets against the slowest of the three samples, so
# the committed budget carries this machine's run-to-run noise envelope.
# Reconstruct a benchstat-compatible stream with:
#   jq -r .line BENCH_engine.json | benchstat /dev/stdin
bench:
	$(GO) test -run '^$$' -count=3 -bench '$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -out BENCH_engine.json

# benchgate re-runs the recorded benchmark set and fails on a >10% ns/op
# regression or any allocs/op growth versus the committed snapshot. Each
# benchmark runs three times and the gate scores the fastest sample, so a
# scheduler hiccup on one run doesn't fail CI. Regenerate the snapshot with
# `make bench` after intentional performance changes.
benchgate:
	$(GO) test -run '^$$' -count=3 -bench '$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchgate -baseline BENCH_engine.json

# benchpair measures the working tree against a base revision on the
# repository's benchmark: alternated pairs of untraced leaf runs of one
# workload, each tree built from its own bench/run.sh, then per end-to-end
# metric the per-pair values, the base's median [IQR], the change's
# median, Δ %, pairs won and whether the gap exceeds the base's IQR. The
# defaults are convex100, seed 7, 10 pairs, and a temporary git worktree
# of the merge-base with main as the base; BENCHPAIR_FLAGS passes
# cmd/benchpair's flags, e.g.
#   make benchpair BENCHPAIR_FLAGS='-workload jobs3 -pairs 6 -base-dir ../parent'
BENCHPAIR_FLAGS ?=
benchpair:
	$(GO) run ./cmd/benchpair $(BENCHPAIR_FLAGS)

# bench-all sweeps every benchmark in the repo (figure/table reproductions
# included) without recording.
bench-all:
	$(GO) test -run '^$$' -bench . -benchmem ./...
