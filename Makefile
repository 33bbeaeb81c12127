# Mirrors .github/workflows/ci.yml so contributors run the exact same
# gate locally: `make ci`.

GO ?= go
# Pinned to the version CI runs; bump both together.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: ci lint fmt-check fmt vet build test race bench bench-json bench-compare fuzz-smoke fault-matrix store-crash fleet-smoke chaos-smoke jobs-crash loadbench-smoke

ci: fmt-check vet lint build test race bench bench-compare fuzz-smoke fault-matrix store-crash fleet-smoke chaos-smoke jobs-crash loadbench-smoke

# The same pinned staticcheck CI runs (downloads it on first use).
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole internal tree under the race detector once, then the
# mining worker fan-out (several goroutines per pass sharing one tail
# build and one broadcast reader, each walking its owned columns), the
# per-dataset mining memo (concurrent first mines racing to fill it),
# and the serving ladder (jobs and HTTP mines racing on one key, a scan
# abandoned at its deadline, a streamed PUT publishing its dataset, a
# mine borrowing an idle admission slot for a second worker, mines
# sharing a kept partition while their neighbours are cancelled and the
# dataset is deleted and re-added) repeated ten times.
race:
	$(GO) test -race ./internal/...
	$(GO) test -race -count=10 -run 'Parallel|Concurrent|SequentialSource|Prepared|ColMask' ./internal/core
	$(GO) test -race -count=10 -run 'ParityAcrossWorkers|ConcurrentPass|FaultMatrixCancel' ./internal/stream
	$(GO) test -race -count=10 -run 'StreamedPut|LadderConcurrent|LadderAbandoned|AutoWorkers|KeptConcurrent' ./internal/server

bench:
	$(GO) test -run=NoTests -bench=. -benchtime=1x ./...

# Regenerate the checked-in performance trajectory baseline — run this
# deliberately when a perf change is intentional, and commit the result.
# The grid sweeps the parallel engines at 1, 2 and 4 workers with
# GOMAXPROCS pinned to each point's width, so the file records honest
# per-width numbers whatever machine it was made on.
bench-json:
	$(GO) run ./cmd/dmcbench -bench-json BENCH_dmc.json -bench-time 1s -bench-workers 1,2,4

# The CI regression gate: a fresh grid must hold rules/s and MB/s
# within 15% of the checked-in baseline. The fresh run uses the same
# bench-time and worker sweep as `bench-json` so both sides of the
# comparison get the same min-of-rounds estimator and the same widths —
# -compare refuses outright if the CPU count or any point's GOMAXPROCS
# differs from the baseline.
bench-compare:
	$(GO) run ./cmd/dmcbench -bench-json bench-current.json -bench-time 1s -bench-workers 1,2,4 -compare BENCH_dmc.json -tolerance 0.15

# The robustness acceptance matrix under the race detector:
# deterministic fault injection (failed/short reads, torn writes,
# ENOSPC, CRC corruption) at 1, 2 and 8 workers over the CRC-framed
# spill codec, mid-pass cancellation, checkpoint/resume (an input
# replaced mid-partition included), a server's kept partition damaged
# between mines or built on a full disk, and the SIGKILL + -resume
# smoke — every cell must end in exact rules or a typed error.
fault-matrix:
	$(GO) test -race -run 'Fault|Cancel|Corrupt|Checkpoint|Budget|Retry|Injector' ./internal/fault ./internal/stream ./internal/core ./internal/server .
	$(GO) test -race -run 'KillResume' ./cmd/dmcmine

# The durability acceptance matrix for the dataset store, the mine
# cache, and the serving layer on top of them: the store fault matrix
# (torn journal writes, ENOSPC mid-commit, failed fsync), the SIGKILL
# re-exec kill/recover tests for both store (mid-blob, mid-journal,
# mid-compaction) and cache (mid-object, mid-journal, mid-compaction),
# cache freshness across overwrite/delete/rollback, admission control
# shedding, and the restart soak with goroutine/fd leak checks.
store-crash:
	$(GO) test -race -run 'Store|KillRecover|Admission|Readyz|Drain|Brownout|DataDirRecovery|Soak|Cache|Append|Delete|PutOverwrite|Rollback' ./internal/store ./internal/cache ./internal/server ./cmd/dmcserve

# The async job subsystem's crash-safety matrix under the race
# detector: the JOBS journal property tests (torn tails repaired,
# mid-file corruption refused, last-record-wins replay, compaction),
# the weighted-fair queue share/work-conservation properties, SSE
# misbehaving-client cells (slow reader dropped, mid-stream disconnect
# leaks nothing), tenant quota sheds with Retry-After, and the re-exec
# SIGKILL drill: kill dmcserve mid-job after the streaming checkpoint
# commits, reboot over the same directories, and require the resumed
# job's result byte-identical to an uninterrupted mine.
jobs-crash:
	$(GO) test -race ./internal/jobs
	$(GO) test -race -run 'Job|SSE|Tenant|Shed|Admission|FairQueue' ./internal/server
	$(GO) test -race -run 'JobsCrashResume' ./cmd/dmcserve

# The distributed-mining acceptance matrix under the race detector: a
# coordinator over two loopback workers (real TCP, real replica pushes)
# must render ?fleet=1 mines byte-identically to a single node, the
# sharded core/stream decompositions must union back to the exact rule
# set, and the fault cells — worker killed mid-pass, node gone before
# scatter, cold replicas — must requeue and still merge exactly, with
# no goroutine or fd leaks after coordinator shutdown.
fleet-smoke:
	$(GO) test -race -run 'Fleet|Shard|Coordinator|Registry|Plan' ./internal/fleet ./internal/server ./internal/stream ./internal/core
	$(GO) test -race -run 'FleetSmoke' ./cmd/dmcserve

# The network-chaos acceptance matrix under the race detector: the
# fault.Transport scenario suite (refused dials, partitions, mid-body
# resets, silent truncation, payload corruption, sheds, latency/jitter,
# slow-loris), then the fleet driven through those scenarios — every
# cell must merge byte-identically to a single node or end in a typed
# error, the per-node breakers must gate dispatch until a half-open
# probe succeeds, Retry-After embargoes must be honored before
# re-dispatch, a slow-loris straggler must resolve via a hedge win,
# and every cell checks for goroutine/fd leaks.
chaos-smoke:
	$(GO) test -race -run 'Transport|Backoff' ./internal/fault
	$(GO) test -race -run 'Chaos|Breaker|Hedge' ./internal/fleet

# A short fuzzing pass over the codecs and the popcount kernels:
# spill-codec corruption must never panic the miners, the binary
# encoder must write the reference encoder's bytes, splicing rows onto
# an encoded prefix must write the whole encode's bytes, an incremental
# snapshot either fails to decode or re-encodes to its exact bytes, the
# word kernels must agree with the naive reference loops on arbitrary
# bit patterns, a rule file the readers accept must hold only possible
# counts and survive a write-then-read round trip (and an implication
# file must read as the fmt.Sscanf reader read it), and an appended mine
# reply must be encoding/json's indented bytes for arbitrary labels and
# counts. Go allows one fuzz target per invocation.
fuzz-smoke:
	$(GO) test -run=NoTests -fuzz=FuzzBlockCodec -fuzztime=10s ./internal/matrix
	$(GO) test -run=NoTests -fuzz=FuzzReadBinary -fuzztime=5s ./internal/matrix
	$(GO) test -run=NoTests -fuzz=FuzzEncodeBinary -fuzztime=5s ./internal/matrix
	$(GO) test -run=NoTests -fuzz=FuzzExtendBinary -fuzztime=5s ./internal/matrix
	$(GO) test -run=NoTests -fuzz=FuzzDecodeIncremental -fuzztime=10s ./internal/core
	$(GO) test -run=NoTests -fuzz=FuzzPreparedParity -fuzztime=10s ./internal/core
	$(GO) test -run=NoTests -fuzz=FuzzCountKernels -fuzztime=10s ./internal/bitset
	$(GO) test -run=NoTests -fuzz=FuzzReadImplications -fuzztime=5s ./internal/rules
	$(GO) test -run=NoTests -fuzz=FuzzReadSimilarities -fuzztime=5s ./internal/rules
	$(GO) test -run=NoTests -fuzz=FuzzMineReply -fuzztime=5s ./internal/server

# The load benchmark's own tests (its own module): percentile and
# comparison arithmetic, and a short end-to-end smoke run.
loadbench-smoke:
	cd loadbench && $(GO) test .
