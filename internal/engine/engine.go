// Package engine provides the sharded worker-pool execution engine behind
// the round-based simulators (the LOCAL runtime, the distributed
// Moser-Tardos resampler and the distributed fixers) and the experiment
// harness.
//
// A Pool is a fixed set of persistent workers. Each call to ForEach or
// ForEachShard partitions the index range [0, n) into contiguous shards and
// lets the workers pull shards off an atomic cursor until the range is
// exhausted. Compared with spawning one goroutine per index per round (the
// original LOCAL simulator), the pool amortises goroutine creation across
// rounds and keeps per-round allocations flat.
//
// Determinism contract: the pool guarantees that fn is called exactly once
// for every index in [0, n), with disjoint contiguous shards, and that the
// call returns only after all indices were processed. It does NOT guarantee
// any ordering between shards. Callers therefore must write results to
// index-addressed locations (out[i] = ...) and must not let the result
// depend on shard execution order; under that discipline results are
// bit-for-bit identical for every worker count, which internal/batch's
// golden table and the LOCAL runtime's Workers 1-vs-2 tests on graphs above
// its inline cutoff lock in.
//
// Nesting is safe: the submitting goroutine always participates in the work
// itself and idle workers are enlisted with non-blocking handoffs, so a
// ForEach issued from inside another ForEach (e.g. a LOCAL run inside a
// parallel experiment harness) degrades to inline execution instead of
// deadlocking.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// targetShardsPerWorker controls the shard granularity: enough shards per
// worker for load balancing without making the atomic cursor contended.
const targetShardsPerWorker = 8

// Pool is a fixed-size set of persistent workers executing sharded index
// ranges. The zero value is not usable; construct with New. A nil *Pool is
// valid and executes everything inline on the caller.
type Pool struct {
	workers int
	jobs    chan *job
	closed  atomic.Bool
}

// job is one ForEachShard invocation: workers race on the cursor for the
// next contiguous shard of [0, n).
type job struct {
	cursor atomic.Int64
	n      int64
	shard  int64
	fn     func(lo, hi int)
	wg     sync.WaitGroup
	// track enables steal accounting (RunStats requested); stolen counts
	// shards executed by helper workers rather than the submitter.
	track  bool
	stolen atomic.Int64
	// panicked holds the first panic recovered from any shard of this job
	// (first writer wins). Helper goroutines must never die from a panic in
	// fn — that would kill the whole process — so every shard runs under a
	// recover, and ForEachShardStats re-raises the captured panic on the
	// submitting goroutine once all workers have quiesced.
	panicked atomic.Pointer[fault.PanicError]
}

// run drains shards off the cursor. helper marks runs on pool workers (as
// opposed to the submitting goroutine) for steal accounting.
func (j *job) run(helper bool) {
	shards := 0
	for j.panicked.Load() == nil {
		lo := j.cursor.Add(j.shard) - j.shard
		if lo >= j.n {
			break
		}
		hi := lo + j.shard
		if hi > j.n {
			hi = j.n
		}
		if pe := j.runShard(int(lo), int(hi)); pe != nil {
			// Record the panic and stop claiming shards; racing workers
			// finish their current shard and observe panicked on the next
			// cursor pull, so the job fails fast without tearing a shard.
			j.panicked.CompareAndSwap(nil, pe)
			break
		}
		shards++
	}
	if helper && j.track && shards > 0 {
		j.stolen.Add(int64(shards))
	}
}

// runShard executes fn on one shard, converting a panic into a
// *fault.PanicError that carries the panicking goroutine's stack.
func (j *job) runShard(lo, hi int) (pe *fault.PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = fault.CapturePanic(r)
		}
	}()
	j.fn(lo, hi)
	return nil
}

// New creates a pool with the given number of workers. workers <= 0 selects
// runtime.GOMAXPROCS(0). A 1-worker pool spawns no goroutines and executes
// inline.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		// The caller participates in every job, so workers-1 helper
		// goroutines saturate `workers` ways of parallelism.
		p.jobs = make(chan *job)
		for i := 0; i < workers-1; i++ {
			go p.worker()
		}
	}
	return p
}

func (p *Pool) worker() {
	for j := range p.jobs {
		j.run(true)
		j.wg.Done()
	}
}

// Workers returns the configured worker count (including the caller).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Close shuts the helper goroutines down. The pool executes inline after
// Close; Close must not be called concurrently with ForEach/ForEachShard.
func (p *Pool) Close() {
	if p == nil || p.jobs == nil {
		return
	}
	if p.closed.CompareAndSwap(false, true) {
		close(p.jobs)
	}
}

// RunStats reports how one ForEachShard call executed on the pool: the
// number of shards the range was split into and how many of them helper
// workers picked up (stole) off the atomic cursor rather than the
// submitting goroutine. The observability layer aggregates these into the
// engine_shards_total / engine_shards_stolen_total counters; a zero Stolen
// on a multi-worker pool means the submitter out-raced all helpers (tiny
// ranges) or the call degraded to inline execution.
type RunStats struct {
	// Shards is the number of disjoint contiguous shards executed.
	Shards int
	// Stolen is the number of shards executed by helper workers.
	Stolen int
}

// ForEachShard covers [0, n) with disjoint contiguous shards, invoking fn
// once per shard from the pool's workers (and the calling goroutine). It
// returns after every index was processed. fn must be safe for concurrent
// invocation on disjoint shards.
func (p *Pool) ForEachShard(n int, fn func(lo, hi int)) {
	p.ForEachShardStats(n, fn, nil)
}

// ForEachShardStats is ForEachShard with optional execution accounting:
// when rs is non-nil it is filled with the call's sharding stats. A nil rs
// is the zero-overhead fast path (no steal tracking); ForEachShard uses it.
func (p *Pool) ForEachShardStats(n int, fn func(lo, hi int), rs *RunStats) {
	if n <= 0 {
		if rs != nil {
			*rs = RunStats{}
		}
		return
	}
	if p == nil || p.workers == 1 || p.closed.Load() || n == 1 {
		fn(0, n)
		if rs != nil {
			*rs = RunStats{Shards: 1}
		}
		return
	}
	shard := (n + p.workers*targetShardsPerWorker - 1) / (p.workers * targetShardsPerWorker)
	if shard < 1 {
		shard = 1
	}
	j := &job{n: int64(n), shard: int64(shard), fn: fn, track: rs != nil}
	// Enlist idle helpers without blocking: a send on the unbuffered channel
	// succeeds only if a worker is parked in its receive. Busy workers (we
	// may be running inside one) are skipped, which is what makes nested
	// ForEach calls deadlock-free.
	for i := 0; i < p.workers-1; i++ {
		j.wg.Add(1)
		select {
		case p.jobs <- j:
		default:
			j.wg.Done()
		}
	}
	j.run(false) // the caller always participates
	j.wg.Wait()
	if rs != nil {
		rs.Shards = int((int64(n) + j.shard - 1) / j.shard)
		rs.Stolen = int(j.stolen.Load())
	}
	// Panic isolation: a panic in fn — on a helper or on the submitter — is
	// recovered at the shard boundary, every worker quiesces, and the first
	// captured panic is re-raised HERE, on the submitting goroutine, as a
	// *fault.PanicError preserving the original stack. Helper goroutines
	// survive and the pool stays usable; callers that want to survive too
	// (the job service's scheduler) recover it, callers that don't keep the
	// ordinary crash semantics. On this path the every-index guarantee is
	// void: the range was only partially processed.
	if pe := j.panicked.Load(); pe != nil {
		panic(pe)
	}
}

// ForEach invokes fn once for every index in [0, n), sharded across the
// pool. See ForEachShard for the concurrency and determinism contract.
func (p *Pool) ForEach(n int, fn func(i int)) {
	p.ForEachShard(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// RoundStats describes one synchronous round executed on the pool, as
// reported by the round-based consumers' Options.OnRound observers (the
// LOCAL runtime, and the Moser-Tardos parallel resampler which maps its
// iteration counters onto the same shape). Every field is deterministic —
// identical for every worker count — so per-round streams can be compared
// across worker counts; timings and sharding stats, which do vary, flow
// through the obs metrics/trace channels instead.
type RoundStats struct {
	// Round is the 1-based round number.
	Round int
	// Steps is the number of machines stepped (Round invocations) this
	// round.
	Steps int
	// Messages is the number of non-nil messages delivered this round.
	Messages int
	// Active is the number of machines still running after the round.
	Active int
	// Halted is the number of machines that halted in this round.
	Halted int
	// Dropped is the number of messages removed by fault injection this
	// round; Crashed the number of machines crash-stopped for the round
	// (local.Options.Fault). Both are zero without an injector, and both
	// are keyed by (round, node[, port]) hashes, so they stay deterministic
	// and worker-count independent like every other field.
	Dropped int
	Crashed int
}

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide pool with GOMAXPROCS workers, created on
// first use and never closed. Round-based simulators default to it so that
// buffer-sized worker state persists across runs.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = New(runtime.GOMAXPROCS(0)) })
	return sharedPool
}
