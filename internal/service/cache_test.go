package service

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/obs"
)

// realService builds a Service running the real RunSpec pipeline with a
// result cache, sized so tests never hit admission control.
func realService(t *testing.T, reg *obs.Registry, cacheSize int) *Service {
	t.Helper()
	s := New(Config{QueueCap: 64, MaxInFlight: 4, Metrics: reg, CacheSize: cacheSize})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s
}

func runJob(t *testing.T, s *Service, js JobSpec) *Summary {
	t.Helper()
	j, err := s.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	v := j.View()
	if v.Result == nil {
		t.Fatalf("job %s finished without a result", j.ID)
	}
	return v.Result
}

// cacheSpec is a small real workload every cache test reuses.
func cacheSpec(seed uint64) JobSpec {
	return JobSpec{Family: FamilySinkless, N: 24, Algorithm: AlgMTPar, Seed: seed, Cache: true}
}

// TestCacheHitBitIdentical: a warm job returns the exact Summary of the
// cold solve — every field identical except the CacheHit marker — and the
// hit is visible in the cache_* metrics and the event stream.
func TestCacheHitBitIdentical(t *testing.T) {
	reg := obs.NewRegistry()
	s := realService(t, reg, 8)

	cold := runJob(t, s, cacheSpec(5))
	if cold.CacheHit {
		t.Fatal("cold solve marked as a cache hit")
	}

	j, err := s.Submit(cacheSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	warm := j.View().Result

	if !warm.CacheHit {
		t.Fatal("second identical job was not served from the cache")
	}
	normalized := *warm
	normalized.CacheHit = false
	if !reflect.DeepEqual(*cold, normalized) {
		t.Fatalf("cache hit is not bit-identical to the cold solve:\ncold: %+v\nwarm: %+v", *cold, normalized)
	}

	events, _, _ := jobEvents(t, j, 0)
	found := false
	for _, e := range events {
		if e.Kind == "cache_hit" {
			found = true
		}
	}
	if !found {
		t.Error("warm job's event stream has no cache_hit event")
	}
	if got := reg.Counter("cache_hits_total").Value(); got != 1 {
		t.Errorf("cache_hits_total = %d, want 1", got)
	}
	if got := reg.Counter("cache_stores_total").Value(); got != 1 {
		t.Errorf("cache_stores_total = %d, want 1", got)
	}
	if got := reg.Counter("cache_misses_total").Value(); got < 1 {
		t.Errorf("cache_misses_total = %d, want >= 1", got)
	}
}

// TestCacheWorkerCountCollapses: jobs differing only in Workers share one
// cache entry — the engine determinism contract makes their results
// identical, so the key deliberately excludes the worker count.
func TestCacheWorkerCountCollapses(t *testing.T) {
	reg := obs.NewRegistry()
	s := realService(t, reg, 8)

	js := cacheSpec(9)
	js.Workers = 1
	cold := runJob(t, s, js)

	js.Workers = 2
	warm := runJob(t, s, js)
	if !warm.CacheHit {
		t.Fatal("job differing only in workers missed the cache")
	}
	normalized := *warm
	normalized.CacheHit = false
	if !reflect.DeepEqual(*cold, normalized) {
		t.Fatalf("worker-count variant not bit-identical:\ncold: %+v\nwarm: %+v", *cold, normalized)
	}
}

// TestCacheOptIn: without cache:true the same job solves twice.
func TestCacheOptIn(t *testing.T) {
	reg := obs.NewRegistry()
	s := realService(t, reg, 8)

	js := cacheSpec(3)
	js.Cache = false
	runJob(t, s, js)
	if warm := runJob(t, s, js); warm.CacheHit {
		t.Fatal("cache served a job that did not opt in")
	}
	if got := reg.Counter("cache_stores_total").Value(); got != 0 {
		t.Errorf("cache_stores_total = %d, want 0 without opt-in", got)
	}
}

// TestCacheSkipsFaultInjectedJobs: fault injection makes runs
// attempt-dependent, so such jobs bypass the cache entirely.
func TestCacheSkipsFaultInjectedJobs(t *testing.T) {
	reg := obs.NewRegistry()
	s := realService(t, reg, 8)

	js := cacheSpec(4)
	js.FaultPanicRate = 0.001
	js.MaxRetries = 3
	j, err := s.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !j.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("fault-injected job did not terminate")
		}
		time.Sleep(time.Millisecond)
	}
	if got := reg.Counter("cache_stores_total").Value(); got != 0 {
		t.Errorf("cache stored a fault-injected result (stores = %d)", got)
	}
}

// TestCacheEviction: an LRU cache of capacity 2 under three distinct jobs
// evicts the oldest entry; re-running it misses and re-solves.
func TestCacheEviction(t *testing.T) {
	reg := obs.NewRegistry()
	s := realService(t, reg, 2)

	runJob(t, s, cacheSpec(1))
	runJob(t, s, cacheSpec(2))
	runJob(t, s, cacheSpec(3)) // evicts seed 1
	if got := reg.Counter("cache_evictions_total").Value(); got != 1 {
		t.Fatalf("cache_evictions_total = %d, want 1", got)
	}
	if got := reg.Gauge("cache_entries").Value(); got != 2 {
		t.Fatalf("cache_entries = %v, want 2", got)
	}
	if warm := runJob(t, s, cacheSpec(1)); warm.CacheHit {
		t.Fatal("evicted entry still served a hit")
	}
	if warm := runJob(t, s, cacheSpec(3)); !warm.CacheHit {
		t.Fatal("most-recent entry was evicted (LRU order broken)")
	}
}

// TestSingleFlightDedup: concurrent identical cacheable jobs collapse onto
// one leader solve; the followers wait and are served from the cache the
// leader populated.
func TestSingleFlightDedup(t *testing.T) {
	reg := obs.NewRegistry()
	r := newStubRunner()
	s := New(Config{QueueCap: 16, MaxInFlight: 4, Metrics: reg, CacheSize: 8, Runner: r.run})
	defer s.Shutdown(context.Background())

	js := JobSpec{Family: FamilySinkless, N: 16, Algorithm: AlgMTPar, Seed: 7, Cache: true}
	jobs := make([]*Job, 3)
	for i := range jobs {
		j, err := s.Submit(js)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	waitStarted(t, r) // the leader is solving; followers must wait, not start

	// Give followers time to reach the flight group, then release the
	// leader exactly once.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("cache_singleflight_waits_total").Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("followers did not join the flight (waits = %d)",
				reg.Counter("cache_singleflight_waits_total").Value())
		}
		time.Sleep(time.Millisecond)
	}
	r.release <- struct{}{}
	for _, j := range jobs {
		waitState(t, j, StateDone)
	}

	if got := r.runs.Load(); got != 1 {
		t.Fatalf("runner executed %d solves for 3 identical jobs, want 1", got)
	}
	hits := 0
	for _, j := range jobs {
		if j.View().Result.CacheHit {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("%d of 3 jobs were cache hits, want 2 (followers only)", hits)
	}
}

// TestSingleFlightFollowerTakesOverOnLeaderFailure: when the leader fails,
// a waiting follower must not inherit the failure — it re-checks the cache,
// finds nothing, and solves itself.
func TestSingleFlightFollowerTakesOver(t *testing.T) {
	reg := obs.NewRegistry()
	r := newStubRunner()
	s := New(Config{QueueCap: 16, MaxInFlight: 4, Metrics: reg, CacheSize: 8, Runner: r.run})
	defer s.Shutdown(context.Background())

	js := JobSpec{Family: FamilySinkless, N: 16, Algorithm: AlgMTPar, Seed: 8, Cache: true}
	a, err := s.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, r)
	b, err := s.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	for reg.Counter("cache_singleflight_waits_total").Value() < 1 {
		time.Sleep(time.Millisecond)
	}

	// Cancel the leader: its run fails, nothing is cached, and the
	// follower must take over and solve.
	if _, err := s.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	waitStarted(t, r) // the follower's own solve
	r.release <- struct{}{}
	waitState(t, b, StateDone)
	if b.View().Result.CacheHit {
		t.Fatal("follower behind a failed leader must not report a cache hit")
	}
	if got := r.runs.Load(); got != 2 {
		t.Fatalf("runner executed %d solves, want 2 (failed leader + follower)", got)
	}
}

// TestBatchPathGoroutineLeak: the batch path must not leak goroutines —
// private pools are closed and follower bookkeeping drains.
func TestBatchPathGoroutineLeak(t *testing.T) {
	s := realService(t, obs.NewRegistry(), 8)
	before := runtime.NumGoroutine()

	js := JobSpec{Cache: true, Workers: 2}
	for i := 0; i < 6; i++ {
		js.Batch = append(js.Batch, JobSpec{Family: FamilySinkless, N: 16, Algorithm: AlgMTPar, Seed: uint64(i % 3)})
	}
	runJob(t, s, js)

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after a batch job", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCacheInlineRelabeledDistinct: two relabeled isomorphic inline
// instances are WL-indistinguishable, so a canonical hash cannot tell them
// apart — but mtseq/seq results depend on event index order, so serving
// one instance's Summary for the other would be wrong. The cache key folds
// the raw inline bytes, keeping the two apart while identical
// resubmissions still collapse.
func TestCacheInlineRelabeledDistinct(t *testing.T) {
	reg := obs.NewRegistry()
	s := realService(t, reg, 8)

	instA, instB := inlinePathA, inlinePathB
	mk := func(raw []byte) JobSpec {
		return JobSpec{Family: FamilyInline, Instance: raw, Algorithm: AlgMTSeq, Cache: true}
	}

	// Sanity-check the scenario: the two instances really are
	// WL-indistinguishable, so only the spec fields keep their keys apart.
	na, err := mk(instA).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	nb, err := mk(instB).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	ia, err := buildInstance(na)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := buildInstance(nb)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Hash(ia) != batch.Hash(ib) {
		t.Fatal("test instances are WL-distinguishable; use a relabeled isomorphic pair")
	}
	if cacheKey(na) == cacheKey(nb) {
		t.Fatal("distinct inline instances share a cache key")
	}

	if cold := runJob(t, s, mk(instA)); cold.CacheHit {
		t.Fatal("first inline job marked as a cache hit")
	}
	if second := runJob(t, s, mk(instB)); second.CacheHit {
		t.Fatal("distinct inline instance served from its relabeled sibling's cache entry")
	}
	if warm := runJob(t, s, mk(instA)); !warm.CacheHit {
		t.Error("identical inline resubmission missed the cache")
	}
	if got := reg.Counter("cache_stores_total").Value(); got != 2 {
		t.Errorf("cache_stores_total = %d, want 2 (one per distinct instance)", got)
	}
}
