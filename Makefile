# Build and verification entry points. `make ci` is the full gate: format
# check, vet, build, every test under the race detector, the
# schedule-independence stress and one iteration of the layer benchmarks.
# `make bench` is the repository's one benchmark (benchmark/, see
# BENCHMARK.json); `bench-smoke` runs the layer benchmarks only to keep them
# building and running, and nothing here compares wall-clock time against a
# threshold — such claims are made from paired benchmark/run.sh runs, tabled
# in EXPERIMENTS.md.

GO ?= go

.PHONY: all build fmt vet test race stress bench-smoke fuzz-regress bench ci

all: build

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Fresh, not from the test cache: the seeded fault matrix, the trace/metrics
# agreement, the executor, artifact, autotuner, daemon and arena suites and
# the root acceptance tests all run here.
race:
	$(GO) test -race -count 1 ./...

# Schedule-independence stress: the kernel suite, the compiled-kernel cache
# and the tuner over it (internal/isa's one mutex is all that guards a first
# compile raced by engines opening at once, and tune.Select keeps no state
# of its own: TestCompileMemoized and TestSelectDeterministic call both from
# several goroutines), the simulator core, the arena suite, the two host
# APIs (internal/sycl's dependency tests are the only concurrency tests of
# SYCL's asynchronous submission: command groups ordered by their buffer
# accesses, within a queue and across two, and the async handler told before
# the event completes) and the executor (internal/pipeline: the one-slot
# contract, several slots and their reorder window) twenty times each under the
# race detector at
# one, two and eight Ps — every reported counter must be a function of the
# input, whatever the interleaving — with Tables VIII and IX and Fig. 2
# rendered against their golden CSVs and the daemon's response flush tests (a timer, the pass
# goroutine and the handler share one ResponseWriter; the client disconnects
# or stalls mid-stream), the coalescer's byte-identity pins (coalescing is the
# daemon's only serving path: merged streams against solo goldens over the
# scheduler and over HTTP, member departure, a panicking merged pass), the
# pass scheduler (Join, leave, the batch timers, dispatch, the pass
# goroutines and Drain race one mutex and each member's quit channel; the
# burst tests fill the slots and the queue and shed the excess over HTTP,
# and one pass carries every waiter once a slot frees), the write side (a
# member stalled in a write misses its deadline and leaves its pass, while
# the other member's stream, departure and the next pass go on), the CPU
# scan's equivalence suite (the SWAR
# compare against the byte and scalar references, the lane-by-lane guide-word
# oracle, patterns of one to five words, a multi-guide run against the merge
# of one-guide runs and the zero-allocation pin, whose pooled scratch is a
# per-goroutine buffer; and the artifact equivalence
# and corrupt-shard tests, since every slot scans one shared mapped PAM
# shard in place), the NDJSON encoder's
# zero-allocation pin, and the simulator engines'
# whole-Profile equality, no field excluded (arena relaunches included),
# with the dense region matrix, at the same count.
# The group-kernel vs per-access-reference differential
# (TestGroupMatchesReference, 40 randomized trials that FuzzGroupKernels'
# corpus also covers) runs once per P count, as do the seeded fault matrix
# with its replay check and the ledger tests: a run has one search.Profile,
# its backend and the executor's report both write it, and it is published
# into the registry once — the race detector over those writers, and the
# metrics/profile agreement after them, are the check. The comparer's
# exhaustive single-goroutine oracle (TestWordExitMatchesWalk, 40 s under
# the race detector) has no schedule to vary; `race` runs it once.
stress:
	$(GO) test -race -count 20 -cpu 1,2,8 ./internal/kernels ./internal/isa ./internal/tune ./internal/gpu ./internal/gpu/alloc ./internal/sycl ./internal/opencl ./internal/pipeline -skip '^(TestGroupMatchesReference|TestWordExitMatchesWalk)$$'
	$(GO) test -race -count 1 -cpu 1,2,8 ./internal/kernels -run '^TestGroupMatchesReference$$'
	$(GO) test -race -count 20 -cpu 1,2,8 ./cmd/benchtab -run 'TestRunCSV'
	$(GO) test -race -count 20 -cpu 1,2,8 ./internal/serve/ -run 'TestFlush'
	$(GO) test -race -count 20 -cpu 1,2,8 ./internal/serve -run 'TestCoalesce|TestCoalescedRequestsOverHTTP|TestPanicIsolation'
	$(GO) test -race -count 20 -cpu 1,2,8 ./internal/serve -run 'TestQuotaTokenBucket|TestShedNewestLowestPriority|TestDeadlineAwareRejection|TestAdmitContextCancellation|TestAdmitCancellationCountsCanceled|TestLeaveDistinguishesShedFromStart|TestDrainShedsQueue|TestFullBatchRunsAtOnce|TestBurstSheds|TestRejectionAdvertisesExactRetryAfter|TestOnePassCarriesEveryWaiter|TestStalledReader'
	$(GO) test -race -count 20 -cpu 1,2,8 ./internal/search/ -run 'TestSWAR|TestGuideWordLanes|TestScanChunkMatchesSeed|TestScanInnerLoopZeroAllocs|TestWriteHitJSONZeroAllocs|TestBatchedMatchesPerPattern|TestCompareMultiWordPatterns|TestArtifactEquivalenceAllEngines|TestArtifactShardMatchesScan|TestArtifactCorruptShardRejected'
	$(GO) test -race -count 20 -cpu 1,2,8 ./internal/search/ -run 'TestSimProfileSchedule|TestDenseCandidateRegionMatrix'
	$(GO) test -race -count 1 -cpu 1,2,8 ./internal/search/ -run 'TestFaultDeterminism|TestFaultMatrix|TestMetricsAgreeWithProfile|TestProfileMerge'

# One iteration of the layer benchmarks that performance claims rest on —
# the simulator's group kernels and the CPU compare — so they cannot rot.
# A smoke run: the numbers it prints are not compared with anything.
bench-smoke:
	$(GO) test -run '^$$' -bench 'GroupKernels|CompareGuides' -benchtime 1x ./internal/kernels ./internal/search

# Fuzz regression mode: the seed corpora (f.Add entries) replay on every
# plain `go test`; this target additionally fuzzes each target briefly to
# grow the corpus and shake out fresh inputs. Not part of `ci` — fuzzing is
# open-ended by nature. FuzzEngines' inputs are kilobyte assemblies; the
# default 60 s minimization of each new-coverage input ate the whole budget
# (≈10 execs in 30 s against ≈1 000/s without it), so it is off there. Its
# second arm (five faulted simulator runs per input, injected hangs waiting
# out a 20 ms watchdog) brings it to ≈100/s.
FUZZTIME ?= 10s
fuzz-regress:
	$(GO) test ./internal/search/ -run '^$$' -fuzz '^FuzzSWARMismatch$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/search/ -run '^$$' -fuzz '^FuzzParseInput$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/search/ -run '^$$' -fuzz '^FuzzHitJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/genome/ -run '^$$' -fuzz '^FuzzReadFASTA$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/genome/ -run '^$$' -fuzz '^FuzzWordView$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/genome/ -run '^$$' -fuzz '^FuzzPack$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/genome/ -run '^$$' -fuzz '^FuzzArtifact$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/genome/ -run '^$$' -fuzz '^FuzzGenerate$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gpu/alloc/ -run '^$$' -fuzz '^FuzzArenaDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kernels/ -run '^$$' -fuzz '^FuzzGroupKernels$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kernels/ -run '^$$' -fuzz '^FuzzGather$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/search/ -run '^$$' -fuzz '^FuzzEngines$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0

# The six workloads of BENCHMARK.json through the real binaries; everything
# it builds and writes stays under .bench_build/.
bench:
	bash benchmark/run.sh

ci: fmt vet build race stress bench-smoke
