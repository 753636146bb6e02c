package service

import (
	"context"
	"errors"
	"runtime"

	"repro/internal/engine"
	"repro/internal/fault"
)

// batchItem is one batch instance flowing through runBatch.
type batchItem struct {
	idx  int // 0-based batch position
	spec JobSpec
	key  uint64 // cache key; valid iff cacheable
}

// runBatch executes a batch job: every cache-eligible instance is first
// looked up in the result cache by its spec key, and identical misses are
// deduplicated in-batch by that key. Each remaining leader then runs through
// runSolo — the RunSpec path of a solo job — concurrently on the job's
// engine pool, so a batch instance's result is the solo result of its spec,
// and entries written by a batch serve later solo jobs and vice versa. The
// NDJSON stream is multiplexed by Event.Instance (1-based): each leader's
// own "round" events while the leaders run, then one "instance_end" per
// leader and per duplicate, in batch order, once every leader has finished
// (cache hits end during the lookup).
func (s *Service) runBatch(ctx context.Context, js JobSpec, att Attempt, emit func(Event)) (*Summary, error) {
	subs := js.Batch
	sum := &Summary{
		Algorithm: "batch",
		Family:    "batch",
		Instances: make([]InstanceSummary, len(subs)),
	}
	for i := range sum.Instances {
		sum.Instances[i] = InstanceSummary{Index: i + 1, Algorithm: subs[i].Algorithm, Seed: subs[i].Seed}
	}

	// Resolve the engine pool the leaders run on: the job-level Workers
	// field (clamped by the service cap), defaulting to the shared pool.
	// With one worker the leaders run one at a time on the caller. Worker
	// count never changes results: each leader writes only its own slot.
	workers := js.Workers
	if s.cfg.MaxWorkersPerJob > 0 && (workers == 0 || workers > s.cfg.MaxWorkersPerJob) {
		workers = s.cfg.MaxWorkersPerJob
	}
	pool := engine.Shared()
	if workers > 0 && workers != runtime.GOMAXPROCS(0) {
		pool = engine.New(workers)
		defer pool.Close()
	}

	finishInstance := func(it *batchItem, isum *Summary, err error) {
		is := &sum.Instances[it.idx]
		if err != nil {
			is.Err = err.Error()
			emit(Event{Kind: "instance_end", Instance: it.idx + 1, Err: is.Err})
			return
		}
		is.Satisfied = isum.Satisfied
		is.ViolatedEvents = isum.ViolatedEvents
		is.Rounds = isum.Rounds
		is.Resamplings = isum.Resamplings
		is.VarsFixed = isum.VarsFixed
		is.CacheHit = isum.CacheHit
		emit(Event{Kind: "instance_end", Instance: it.idx + 1, CacheHit: isum.CacheHit})
	}

	// Phase 1: serve cache hits and dedupe identical misses. Keys are folds
	// of the specs, so nothing is built here. The phase is timed as a
	// "batch_prepare" span under the job's trace.
	psp, _ := s.cfg.Trace.StartSpan(ctx, "batch_prepare")
	var leaders []*batchItem
	followers := make(map[uint64][]*batchItem) // cache key → same-key items behind a leader
	leaderByKey := make(map[uint64]*batchItem)
	for i := range subs {
		if cerr := ctx.Err(); cerr != nil {
			return sum, cerr
		}
		sub := subs[i]
		it := &batchItem{idx: i, spec: sub}
		if s.cacheable(sub) {
			it.key = cacheKey(sub)
			if cached, ok := s.cache.get(it.key); ok {
				sum.NumEvents += cached.NumEvents
				sum.NumVars += cached.NumVars
				cached.CacheHit = true
				finishInstance(it, cached, nil)
				continue
			}
			if leader, ok := leaderByKey[it.key]; ok {
				// Identical spec earlier in this batch: solve once, fan
				// the result out below.
				followers[leader.key] = append(followers[leader.key], it)
				continue
			}
			leaderByKey[it.key] = it
		}
		leaders = append(leaders, it)
	}
	psp.End()

	// Phase 2: run the leaders concurrently on the pool, each into its own
	// slot; RunSpec builds each instance itself. A cancelled batch starts
	// no more leaders.
	type leaderRun struct {
		sum     *Summary
		err     error
		started bool
	}
	runs := make([]leaderRun, len(leaders))
	pool.ForEach(len(leaders), func(i int) {
		if ctx.Err() != nil {
			return
		}
		r := &runs[i]
		r.started = true
		r.sum, r.err = s.runSolo(ctx, leaders[i], att, emit)
	})

	// Phase 3: complete the leaders in batch order — store the result, end
	// the leader, then its in-batch duplicates — and add each size to the
	// aggregate once per copy. The batch ends cancelled only if cancellation
	// skipped or stopped a leader, so a cancel that lands after the last
	// leader finished leaves a finished batch done.
	var runErr error
	for i, it := range leaders {
		r := runs[i]
		if !r.started {
			if runErr == nil {
				runErr = ctx.Err()
			}
			continue
		}
		if r.sum != nil {
			n := 1 + len(followers[it.key])
			sum.NumEvents += n * r.sum.NumEvents
			sum.NumVars += n * r.sum.NumVars
		}
		if r.err == nil && s.cacheable(it.spec) {
			s.cache.put(it.key, r.sum)
		}
		finishInstance(it, r.sum, r.err)
		for _, f := range followers[it.key] {
			if r.err != nil {
				finishInstance(f, nil, r.err)
				continue
			}
			// Followers exist only for cacheable leaders, so the leader's
			// result is in the cache now.
			dup := cloneSummary(r.sum)
			dup.CacheHit = true
			finishInstance(f, dup, nil)
		}
		if cerr := ctx.Err(); runErr == nil && cerr != nil && errors.Is(r.err, cerr) {
			runErr = r.err
		}
	}

	// Aggregate. ViolatedEvents stays -1 (unknown) only if no instance
	// reported one.
	sum.Satisfied = len(subs) > 0
	for i := range sum.Instances {
		is := &sum.Instances[i]
		if is.Err != "" || !is.Satisfied {
			sum.Satisfied = false
		}
		sum.ViolatedEvents += is.ViolatedEvents
		sum.Resamplings += is.Resamplings
		sum.VarsFixed += is.VarsFixed
		if is.Rounds > sum.Rounds {
			sum.Rounds = is.Rounds
		}
		if is.CacheHit {
			sum.CacheHit = true // at least one instance was served cached
		}
	}
	return sum, runErr
}

// runSolo executes one batch leader through the ordinary single-job path,
// RunSpec, tagging every event it emits (its "round" events included) with
// the instance id. The batch job's real attempt number is carried through so
// fault injection derives a fresh pattern on every batch retry, like solo
// jobs; per-instance checkpoints are dropped (the batch job record holds no
// sub-job state). Leaders run concurrently, so emit must be safe for
// concurrent use, as Job.Emit is.
func (s *Service) runSolo(ctx context.Context, it *batchItem, att Attempt, emit func(Event)) (*Summary, error) {
	taggedEmit := func(e Event) {
		e.Instance = it.idx + 1
		emit(e)
	}
	subAtt := Attempt{Number: att.Number, SaveCheckpoint: func(*fault.Checkpoint) {}}
	return RunSpec(ctx, it.spec, subAtt, taggedEmit, s.runOpts)
}
