GO ?= go
GOFMT ?= gofmt

.PHONY: all build vet test race bench check ci

all: check

build:
	$(GO) build ./...

# Every tracked .go file must be gofmt-clean. staticcheck is optional:
# run it when the host has it, skip quietly when not (the CI image
# installs it; a bare container need not).
vet: build
	$(GO) vet ./...
	@unformatted=$$(git ls-files -z '*.go' | xargs -0 -r $(GOFMT) -l 2>&1); \
	if [ -n "$$unformatted" ]; then echo "vet: not gofmt-clean:"; echo "$$unformatted"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "vet: staticcheck not installed, skipping"; fi

test: vet
	$(GO) test ./...

# The pipeline runs shards on a worker pool; the race detector is the
# check that per-shard state really is private.
race:
	$(GO) test -race ./...

# The end-to-end benchmark: every workload BENCHMARK.json lists, in
# repeated reps with spread and an environment stamp (benchmark/README.md
# explains the workloads and metrics).
bench:
	bash benchmark/run.sh

check: build vet test race

# CI entry point: full vet + test (engine parity included:
# TestStateMergingIsExact holds the compiled engine to the interpreter
# on candidates against their InstCombine output, and ci-workload cmps
# a refuting campaign across the two), then the race detector on the
# concurrency-bearing surfaces — the worker-pool packages, the shared
# cross-shard memo, the two-way engine lockstep (interpreter vs
# compiled closures) with the shared frame pool, one program
# enumerated with state merging from several goroutines, and the
# telemetry registry's lock-free hot paths — and finally a quick
# campaign that must export a parseable metric snapshot carrying the
# counters the telemetry layer promises —
# including, via the ">0" assertions, proof that the campaign ran on
# the compiled engine and that state merging ended runs early (the
# legacy campaign: its undef resolution makes the choice paths that
# merge), so a change that silently turns merging off fails here.
# The same check bounds the programs compiled per check at 1.5: a side
# whose sets are all in the memo is never compiled, so a change that
# compiles both sides of every check again (2 per check) fails too.
# It also bounds memo lookups at one per input: sources never repeat,
# so only the target consults the memo, and a change that looks
# sources up again (2 per input) fails.
# The JSON twin of that snapshot lands in the git-ignored ci-bench/
# for the workflow artifact, and a negative control reads it back with a
# clause that must fail (a failure counter above zero), so an
# assertion evaluator that passes everything fails make ci. The
# unsound legacy -O2 campaign (two refutations) then exports its
# snapshot on stdout too: its findings must move to stderr, or the
# exposition would not parse.
#
# The poison-analysis guards run after that: tame-lint over the
# freeze-elim corpus (verifier + SSA + dataflow diagnostics must be
# clean), a full -O2 under -verify-each over a CFG with loop-carried
# freezes — asserting the analysis was queried, freeze-elim actually
# deleted something the local operand walk cannot (a freeze behind a
# loop phi), every between-pass checker battery ran, and the failure
# counter is present AND zero ("=0") — and the soundness oracle
# sweeping the whole 1-instruction freeze-dialect space, cross-checking
# every static NeverPoison claim against concrete enumeration (exit 1
# on any violation). The legacy quick campaign also runs under
# -verify-each so the battery covers the legacy dialect too.
#
# Pass time comes only from the pass spans: tame-opt -time-passes must
# print a non-zero total on its timing line (wiring that leaves every
# wall at zero prints "total 0s"), and as the negative control the same
# run with -stats alone prints the statistics and no timing line.
#
# The input gates: tame-tv must reject an undef under the default freeze
# semantics as the verifier does (exit 1, tame-opt's message), not reach
# the checker and panic; it must reject a module that defines @f twice
# with the parser's positioned message, not check each copy against the
# first and print a refutation; and tame-cc must reject a MinC array
# whose byte size wraps 32 bits (4 x 2^30) with its size-limit error,
# not compile it to a zero-byte global. The inputs and their outputs
# land in ci-bench/.
#
# benchmark/ is a module of its own (replace tameir => ../), so the root
# go build/vet/test never compile it: the first two lines vet and test
# it, or a deletion of an API it imports would pass CI and break
# benchmark/run.sh. Both run offline in about two seconds.
ci: vet test
	$(GO) vet -C benchmark .
	$(GO) test -C benchmark .
	$(GO) test -race ./internal/passes ./internal/optfuzz
	$(GO) test -race -run 'Memo|Compiled|ProgramShared|Fold|MergingShared' ./internal/refine ./internal/core
	$(GO) test -race -run 'TelemetryRaceStress' ./internal/telemetry
	mkdir -p ci-bench
	$(GO) build -o ci-bench/ ./cmd/tame-tv ./cmd/tame-cc
	printf 'define i2 @f(i2 %%x) {\n  %%r = add i2 %%x, undef\n  ret i2 %%r\n}\n' > ci-bench/undef-freeze.ll
	ci-bench/tame-tv -pass instcombine ci-bench/undef-freeze.ll 2> ci-bench/undef-freeze.err; test $$? -eq 1 && grep -q '@f: %r = add i2 %x, undef uses undef, which does not exist under the freeze semantics' ci-bench/undef-freeze.err && ! grep -q 'panic:' ci-bench/undef-freeze.err
	printf 'define i2 @f(i2 %%x) {\n  ret i2 %%x\n}\ndefine i2 @f(i2 %%x) {\n  ret i2 0\n}\n' > ci-bench/dup.ll; ci-bench/tame-tv ci-bench/dup.ll ci-bench/dup.ll > ci-bench/dup.out 2> ci-bench/dup.err; test $$? -eq 1 && grep -q 'redefinition of @f' ci-bench/dup.err && ! grep -q 'refuted' ci-bench/dup.out
	printf 'int big[1073741824]; int main() { return 0; }\n' > ci-bench/big.c; ci-bench/tame-cc ci-bench/big.c > ci-bench/big.out 2> ci-bench/big.err; test $$? -eq 1 && grep -q 'exceeds the 16777216-byte object size limit' ci-bench/big.err
	$(GO) run ./cmd/tame-fuzz -validate -verify-each -n 200 -workers 2 -sem legacy -metrics - \
	  | $(GO) run ./cmd/tame-metrics -check 'campaign_funcs_total,campaign_verified_total,check_checks_total,check_inputs_total,check_set_size,engine_steps_total,engine_execs_closure_total>0,engine_merge_exits_total>0,memo_lookups_total,memo_lookups_total/check_inputs_total<=1,check_compiles_total/check_checks_total<=1.5,pool_tasks_total,pass_runs_total,opt_funcs_total,analysis_computes_total,span_wall_ns,verify_each_checks_total>0,verify_each_failures_total=0'
	$(GO) run ./cmd/tame-fuzz -validate -verify-each -n 200 -workers 2 -sem legacy -metrics ci-bench/metrics-snapshot.json
	! $(GO) run ./cmd/tame-metrics -check 'verify_each_failures_total>0' ci-bench/metrics-snapshot.json
	$(GO) run ./cmd/tame-fuzz -validate -sem legacy -unsound -instrs 2 -n 2000 -workers 2 -metrics - \
	  | $(GO) run ./cmd/tame-metrics -check 'campaign_refuted_total>0'
	$(GO) run ./cmd/tame-lint -q internal/passes/testdata/freeze-elim-loop.ll
	$(GO) run ./cmd/tame-opt -sem freeze -verify-each -metrics ci-bench/metrics-verify-each.txt internal/passes/testdata/freeze-elim-loop.ll > /dev/null
	$(GO) run ./cmd/tame-metrics -check 'analysis_poison_queries_total>0,passes_freeze_elim_removed_total>0,verify_each_checks_total>0,verify_each_failures_total=0' ci-bench/metrics-verify-each.txt
	$(GO) run ./cmd/tame-opt -sem freeze -time-passes internal/passes/testdata/freeze-elim-loop.ll 2> ci-bench/time-passes.txt > /dev/null
	grep -q '^===- Pass execution timing (total [1-9]' ci-bench/time-passes.txt
	$(GO) run ./cmd/tame-opt -sem freeze -stats internal/passes/testdata/freeze-elim-loop.ll 2> ci-bench/stats-only.txt > /dev/null
	grep -q '^===- Pass statistics' ci-bench/stats-only.txt && ! grep -q 'Pass execution timing' ci-bench/stats-only.txt
	$(GO) run ./cmd/tame-fuzz -poison-oracle -instrs 1 -n 0 -sem freeze -workers 2 -metrics - \
	  | $(GO) run ./cmd/tame-metrics -check 'poison_oracle_funcs_total>0,poison_oracle_claims_total>0,poison_oracle_execs_total>0,poison_oracle_violations_total=0'
	$(MAKE) ci-workload
	$(MAKE) ci-trace

# The workload-layer gate, in two halves. Determinism: the same seeded
# mutation campaign (unsound legacy -O2, reducer on) runs at two worker
# counts and cmp enforces byte-identical reduced findings AND a
# byte-identical final corpus; the exhaustive-on-Source path gets the
# same cmp across workers 1 vs 4, proving the Source refactor did not
# perturb the original stream. Liveness: the mutation run's metric
# snapshot must show a populated corpus, novel coverage keys, a
# reducer that actually shrank findings, and executions the engine
# stopped early as provably divergent (looping mutants would otherwise
# run to the fuel limit, which costs no verdict but most of the run's
# time). Engine parity: the unsound legacy -O2 campaign (two
# refutations) runs once on the compiled engine and once on the
# tree-walking interpreter (-interp), and cmp enforces byte-identical
# findings. Monitored path: the same campaign runs a third time with
# the campaign monitor armed (-progress streams the findings,
# -stall-deadline arms the watchdog), and cmp enforces the same
# findings again. The ci-workload/ dir — the findings files, the
# corpus, and the metric snapshot — is kept for the workflow's
# fuzz-corpus artifact.
.PHONY: ci-workload
ci-workload:
	rm -rf ci-workload && mkdir -p ci-workload
	$(GO) run ./cmd/tame-fuzz -validate -source mutate -seed 7 -epochs 3 -n 60 -sem legacy -unsound -reduce -workers 2 \
	  -corpus ci-workload/corpus-w2.ll -metrics ci-workload/mutate-metrics.json > ci-workload/mutate-w2.txt || true
	$(GO) run ./cmd/tame-fuzz -validate -source mutate -seed 7 -epochs 3 -n 60 -sem legacy -unsound -reduce -workers 8 \
	  -corpus ci-workload/corpus-w8.ll > ci-workload/mutate-w8.txt || true
	cmp ci-workload/mutate-w2.txt ci-workload/mutate-w8.txt
	cmp ci-workload/corpus-w2.ll ci-workload/corpus-w8.ll
	$(GO) run ./cmd/tame-metrics -check 'campaign_funcs_total>0,campaign_epochs_total>0,corpus_size>0,coverage_keys>0,reduce_steps_total>0,reduce_findings_total>0,engine_cycle_exits_total>0' ci-workload/mutate-metrics.json
	$(GO) run ./cmd/tame-fuzz -validate -n 300 -workers 1 -sem freeze > ci-workload/exhaustive-w1.txt
	$(GO) run ./cmd/tame-fuzz -validate -source exhaustive -n 300 -workers 4 -sem freeze > ci-workload/exhaustive-w4.txt
	cmp ci-workload/exhaustive-w1.txt ci-workload/exhaustive-w4.txt
	$(GO) run ./cmd/tame-fuzz -validate -sem legacy -unsound -instrs 2 -n 2000 -workers 2 > ci-workload/parity-compiled.txt || true
	$(GO) run ./cmd/tame-fuzz -validate -sem legacy -unsound -instrs 2 -n 2000 -workers 2 -interp > ci-workload/parity-interp.txt || true
	cmp ci-workload/parity-compiled.txt ci-workload/parity-interp.txt
	$(GO) run ./cmd/tame-fuzz -validate -sem legacy -unsound -instrs 2 -n 2000 -workers 2 -progress -stall-deadline 120s > ci-workload/parity-monitored.txt || true
	cmp ci-workload/parity-compiled.txt ci-workload/parity-monitored.txt

# The flight-recorder gate: the seeded mutation campaign (the same one
# ci-workload's determinism half runs — it reliably produces findings)
# runs traced with the stall watchdog armed, then tame-trace -assert
# holds the recording to the invariants the trace layer promises:
# shard spans present, exactly one pinned provenance instant per
# finding (instants(finding)==counter(findings) — the pinned region is
# what makes this immune to ring wrap), and zero watchdog stalls; the
# metric twin re-checks the stall count and the event volume from the
# registry side. A negative control asserts instants(finding)==0,
# which the same trace must refute. The human-readable summary (top
# spans, per-shard utilization, outliers) and the trace itself land in
# ci-trace/ for the workflow's flight-recorder artifact — download
# trace.json and drop it into ui.perfetto.dev to see the campaign
# timeline.
.PHONY: ci-trace
ci-trace:
	rm -rf ci-trace && mkdir -p ci-trace
	$(GO) run ./cmd/tame-fuzz -validate -source mutate -seed 7 -epochs 3 -n 60 -sem legacy -unsound -reduce -workers 2 \
	  -trace ci-trace/trace.json -stall-deadline 120s -metrics ci-trace/trace-metrics.json > ci-trace/findings.txt || true
	$(GO) run ./cmd/tame-trace -assert 'spans(campaign/s)>0,spans(check/)>0,spans(pass/)>0,instants(finding)==counter(findings),instants(finding)>0,instants(watchdog_stall)==0' ci-trace/trace.json
	! $(GO) run ./cmd/tame-trace -assert 'instants(finding)==0' ci-trace/trace.json
	$(GO) run ./cmd/tame-trace summarize ci-trace/trace.json > ci-trace/summary.txt
	$(GO) run ./cmd/tame-metrics -check 'watchdog_stalls_total=0,trace_events_total>0,campaign_refuted_total>0' ci-trace/trace-metrics.json
