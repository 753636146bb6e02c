package service

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/model"
)

// batchAlgorithms that pack into shared engine runs. The LOCAL-model
// algorithms (dist, mtdist) hold their state per simulated node with
// identifiers drawn over the whole node range, so packing would change
// their results; batch jobs run them per instance instead.
func packable(alg string) bool {
	switch alg {
	case AlgMTPar, AlgMTSeq, AlgOneShot, AlgSeq:
		return true
	}
	return false
}

// groupKey buckets batch instances that can share one packed engine run:
// same algorithm, same termination budgets.
type groupKey struct {
	alg                                string
	maxRounds, maxResamplings, maxIter int
}

// batchItem is one batch instance flowing through runBatch.
type batchItem struct {
	idx  int // 0-based batch position
	spec JobSpec
	inst *model.Instance // built when its group runs, released when it ends
	key  uint64          // cache key; valid iff cacheable
	pkey groupKey
}

// runBatch executes a batch job: every cache-eligible instance is first
// looked up in the result cache by its spec key; the misses are
// deduplicated in-batch by cache key, grouped by algorithm and budget, and
// each group builds its instances, runs as ONE packed engine run
// (internal/batch) whose per-instance results are bit-identical to solo
// jobs with the same spec, and releases them — so entries written by a
// batch populate the cache for later solo jobs and vice versa, and only one
// group's instances are alive at a time. The LOCAL-model algorithms fall
// back to per-instance solo runs inside the batch job. Aggregate "round"
// events stream per packed round and one "instance_end" event per
// instance, multiplexed by Event.Instance (1-based).
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

	// Resolve the engine pool for the builds and packed runs: the job-level
	// Workers field (clamped by the service cap), defaulting to the shared
	// pool. Worker count never changes results (engine determinism
	// contract).
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
		it.pkey = groupKey{alg: sub.Algorithm, maxRounds: sub.MaxRounds, maxResamplings: sub.MaxResamplings, maxIter: sub.MaxIters}
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

	// Phase 2: group the misses and run each group as one packed engine
	// run (or per-instance for the LOCAL algorithms). Groups run
	// sequentially so their round streams do not interleave.
	groups := make(map[groupKey][]*batchItem)
	var order []groupKey
	for _, it := range leaders {
		if _, ok := groups[it.pkey]; !ok {
			order = append(order, it.pkey)
		}
		groups[it.pkey] = append(groups[it.pkey], it)
	}

	// built adds a leader's instance size to the aggregate once for the
	// leader and once for each of its in-batch duplicates.
	built := func(it *batchItem, numEvents, numVars int) {
		n := 1 + len(followers[it.key])
		sum.NumEvents += n * numEvents
		sum.NumVars += n * numVars
	}
	complete := func(it *batchItem, isum *Summary, err error) {
		stored := err == nil && isum != nil && !isum.Partial && s.cacheable(it.spec)
		if stored {
			s.cache.put(it.key, isum)
		}
		finishInstance(it, isum, err)
		for _, f := range followers[it.key] {
			if err != nil {
				finishInstance(f, nil, err)
				continue
			}
			// A follower is a cache hit only if the leader's result actually
			// went into the cache; a partial result (cancelled mid-run) fans
			// out as a plain copy.
			dup := cloneSummary(isum)
			dup.CacheHit = stored
			finishInstance(f, dup, nil)
		}
	}

	var runErr error
	onRound := func(rs engine.RoundStats) {
		emit(Event{
			Kind: "round", Round: rs.Round, Steps: rs.Steps,
			Messages: rs.Messages, Active: rs.Active, Halted: rs.Halted,
			Dropped: rs.Dropped, Crashed: rs.Crashed,
		})
	}
	for _, gk := range order {
		if runErr == nil {
			runErr = ctx.Err()
		}
		if runErr != nil {
			break
		}
		items := groups[gk]
		// Each packing group gets its own sibling span; gctx parents the
		// group's build and its packed (or solo) runs to it.
		gsp, gctx := s.cfg.Trace.StartSpan(ctx, "batch_group:"+gk.alg)
		if !packable(gk.alg) {
			// RunSpec builds each instance itself.
			for _, it := range items {
				isum, err := s.runSolo(gctx, it, att, emit)
				if isum != nil {
					built(it, isum.NumEvents, isum.NumVars)
				}
				complete(it, isum, err)
				if err != nil && ctx.Err() != nil {
					runErr = err
					break
				}
			}
			gsp.End()
			continue
		}
		// Build the group's instances in parallel on the job's pool. Each
		// build writes only its own slot, so nothing depends on the worker
		// count. A build error fails that instance (and its duplicates)
		// alone, with the error text a solo job reports.
		errs := make([]error, len(items))
		bsp, _ := s.cfg.Trace.StartSpan(gctx, "build_instance")
		pool.ForEach(len(items), func(i int) {
			items[i].inst, errs[i] = buildInstance(items[i].spec)
		})
		bsp.End()
		var run []*batchItem
		var insts []*model.Instance
		var seeds []uint64
		for i, it := range items {
			if errs[i] != nil {
				complete(it, nil, fmt.Errorf("building instance: %w", errs[i]))
				continue
			}
			built(it, it.inst.NumEvents(), it.inst.NumVars())
			run = append(run, it)
			insts = append(insts, it.inst)
			seeds = append(seeds, it.spec.Seed)
		}
		if len(run) > 0 {
			packed := batch.Pack(insts)
			opts := batch.Options{
				Ctx:            gctx,
				Pool:           pool,
				MaxRounds:      gk.maxRounds,
				MaxResamplings: gk.maxResamplings,
				OnRound:        onRound,
				Metrics:        s.cfg.Metrics,
			}
			var results []batch.Result
			switch gk.alg {
			case AlgMTPar:
				results, runErr = batch.RunParallelMT(packed, seeds, opts)
			case AlgMTSeq:
				results, runErr = batch.RunSequentialMT(packed, seeds, opts)
			case AlgOneShot:
				results, runErr = batch.RunOneShot(packed, seeds, opts)
			case AlgSeq:
				results, runErr = batch.RunFixSequential(packed, opts)
			}
			for i, it := range run {
				if results == nil {
					complete(it, nil, runErr)
					continue
				}
				isum := packedSummary(it, results[i])
				if runErr != nil {
					isum.Partial = true
				}
				complete(it, isum, results[i].Err)
			}
		}
		// Release the group's instances before the next group builds.
		for _, it := range items {
			it.inst = nil
		}
		gsp.End()
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

// runSolo executes one non-packable batch instance through the ordinary
// single-job path, tagging its round events with the instance id. The batch
// job's real attempt number is carried through so fault injection derives a
// fresh pattern on every batch retry, like solo jobs; per-instance
// checkpoints are dropped (the batch job record holds no sub-job state).
func (s *Service) runSolo(ctx context.Context, it *batchItem, att Attempt, emit func(Event)) (*Summary, error) {
	taggedEmit := func(e Event) {
		e.Instance = it.idx + 1
		emit(e)
	}
	subAtt := Attempt{Number: att.Number, SaveCheckpoint: func(*fault.Checkpoint) {}}
	return RunSpec(ctx, it.spec, subAtt, taggedEmit, s.runOpts)
}

// packedSummary converts one packed batch.Result into the Summary the solo
// path would have produced for the same spec, field for field — that
// equivalence is what lets batch-written cache entries serve solo jobs.
func packedSummary(it *batchItem, r batch.Result) *Summary {
	isum := &Summary{
		Algorithm:      it.spec.Algorithm,
		Family:         it.spec.Family,
		NumEvents:      it.inst.NumEvents(),
		NumVars:        it.inst.NumVars(),
		Satisfied:      r.Satisfied,
		ViolatedEvents: r.ViolatedEvents,
		Rounds:         r.Rounds,
		Resamplings:    r.Resamplings,
		VarsFixed:      r.VarsFixed,
		AssignmentHash: assignmentHash(r.Assignment),
	}
	return isum
}
