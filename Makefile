# Development entry points for the LLL reproduction.

GO ?= go

.PHONY: build test test-race vet vet-cluster bench bench-json bench-gate harness cover fuzz fuzz-short clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

# Fast-fail gate over the cluster tier: vet plus a doubled race pass on the
# membership/ring/detector/router packages. The failure detector and the
# membership hot-reload are all timing and shared state — -count=2 reruns
# every test with a warmed scheduler so ordering flakes surface here, not
# in the full suite.
vet-cluster:
	$(GO) vet ./internal/cluster/...
	$(GO) test -race -count=2 ./internal/cluster/...

# Race-detector pass over the sharded execution engine and its consumers
# (the LOCAL runtime, distributed Moser-Tardos, the distributed fixers, the
# colouring machines, which reuse their message buffers across rounds), the
# observability layer they report into (including the SLO burn-rate engine),
# the fault-injection/recovery layer, the packed runners kept for perfbench,
# the multi-tenant fair scheduler, the job service on top, and the cluster tier
# (ring, membership, router).
test-race:
	$(GO) test -race ./internal/local/... ./internal/mt/... ./internal/core/... ./internal/coloring/... ./internal/engine/... ./internal/obs/... ./internal/slo/... ./internal/fault/... ./internal/batch/... ./internal/tenant/... ./internal/service/... ./internal/kernel/... ./internal/cluster/...

# One benchmark per paper figure/table plus solver micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark evidence: the n = 100k engine, LOCAL-runtime
# and violated-scan benchmarks at 1/2/4 workers (-cpu sets GOMAXPROCS, the
# pool follows), the obs hot-path micro-benches, and the serving-path
# benchmarks — repeated identical jobs cold vs warm cache, the 64-instance
# batch against one solo instance, and packed vs solo mtpar runs — plus the
# cluster-tier latencies: the router's placement decision and the warm
# cache-hit path served locally vs through the peer fill — parsed into
# BENCH_pr8.json. The cache-hit and router-placement benchmarks run at
# -cpu 1 on every host, so their rows carry cpus: 1 as in the committed
# BENCH_pr8.json and CI's second gate finds them at any GOMAXPROCS. The
# workload sizes and required benchmark names live in internal/benchset;
# -require fails the parse if any pinned benchmark went missing.
# `make bench-gate` diffs the result against the committed trajectory.
bench-json:
	$(GO) test -run=NONE -bench 'BenchmarkEngineRounds|BenchmarkLocalSinkless100k|BenchmarkViolatedScan100k' -benchmem -cpu 1,2,4 . > bench.out
	$(GO) test -run=NONE -bench 'BenchmarkObs' -benchmem ./internal/obs >> bench.out
	$(GO) test -run=NONE -bench 'BenchmarkServiceRepeatedJobs|BenchmarkServiceBatch64' -benchtime 30x ./internal/service >> bench.out
	$(GO) test -run=NONE -bench 'BenchmarkCacheHitPath' -benchmem -benchtime 50x -cpu 1 ./internal/service >> bench.out
	$(GO) test -run=NONE -bench 'BenchmarkPackedBatch' -benchtime 10x ./internal/batch >> bench.out
	$(GO) test -run=NONE -bench 'BenchmarkRouterPlacement' -benchmem -cpu 1 ./internal/cluster/router >> bench.out
	$(GO) run ./cmd/benchjson -require -out BENCH_pr8.json < bench.out
	rm -f bench.out

# The CI benchmark-regression gate: regenerated evidence must stay inside
# the tolerance bands of the committed trajectory (and the kernel scan must
# beat the generic scan by the pinned intra-run ratio).
bench-gate:
	$(GO) run ./cmd/benchgate -baseline BENCH_pr6.json -current BENCH_pr8.json

# Regenerate every experiment table (F1, F2, T1..T11).
harness:
	$(GO) run ./cmd/benchharness

cover:
	$(GO) test -cover ./...

# Short fuzzing pass over the geometry and the numeric solver.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDecompose -fuzztime=10s ./internal/srep/
	$(GO) test -run=NONE -fuzz=FuzzSurfaceConvexity -fuzztime=10s ./internal/srep/
	$(GO) test -run=NONE -fuzz=FuzzFeasibleSoundness -fuzztime=10s ./internal/conjecture/

# The core-invariant fuzz targets at the 30s acceptance budget: property
# P* under every strategy and family, representable-triple membership
# against the closed-form surface, the bit-packed assignment's
# pack/unpack/flip round-trip against model.Assignment, and the tenant
# policy parser's invariants (normalization idempotence, default tenant
# materialization, limit validation), the router's spliced round line
# against a decode-and-re-encode of the same event, and the event log's
# direct encoding of a round event against json.Marshal. Nightly CI runs
# the same targets for 5 minutes each.
fuzz-short:
	$(GO) test -run=NONE -fuzz='^FuzzPStarInvariant$$' -fuzztime=30s ./internal/core/
	$(GO) test -run=NONE -fuzz='^FuzzRepresentableTriple$$' -fuzztime=30s ./internal/srep/
	$(GO) test -run=NONE -fuzz='^FuzzAssignmentPackRoundTrip$$' -fuzztime=30s ./internal/kernel/
	$(GO) test -run=NONE -fuzz='^FuzzTenantSpec$$' -fuzztime=30s ./internal/tenant/
	$(GO) test -run=NONE -fuzz='^FuzzAppendRelayedRound$$' -fuzztime=30s ./internal/service/
	$(GO) test -run=NONE -fuzz='^FuzzAppendRound$$' -fuzztime=30s ./internal/service/

clean:
	$(GO) clean -testcache
