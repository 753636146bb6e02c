package service

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// batchOf builds a batch JobSpec over the given sub-specs.
func batchOf(cache bool, subs ...JobSpec) JobSpec {
	return JobSpec{Cache: cache, Batch: subs}
}

// TestBatchMatchesSolo: every instance of a batch job reports exactly the
// counters the solo path produces for the same spec — the packed execution
// is observationally identical to one job per instance.
func TestBatchMatchesSolo(t *testing.T) {
	s := realService(t, obs.NewRegistry(), 0) // no cache: pure execution equality

	subs := []JobSpec{
		{Family: FamilySinkless, N: 16, Algorithm: AlgMTPar, Seed: 5},
		{Family: FamilySinkless, N: 24, Algorithm: AlgMTPar, Seed: 6},
		{Family: FamilySinkless, N: 16, Algorithm: AlgMTSeq, Seed: 7},
		{Family: FamilySinkless, N: 16, Algorithm: AlgSeq, Seed: 1},
		{Family: FamilyHyper, N: 18, Algorithm: AlgOneShot, Seed: 8},
		{Family: FamilySinkless, N: 12, Algorithm: AlgDist, Seed: 9}, // LOCAL: solo fallback inside the batch
	}
	solo := make([]*Summary, len(subs))
	for i, sub := range subs {
		solo[i] = runJob(t, s, sub)
	}

	sum := runJob(t, s, batchOf(false, subs...))
	if len(sum.Instances) != len(subs) {
		t.Fatalf("batch summary has %d instances, want %d", len(sum.Instances), len(subs))
	}
	for i, is := range sum.Instances {
		want := solo[i]
		if is.Err != "" {
			t.Fatalf("instance %d failed: %s", i, is.Err)
		}
		if is.Index != i+1 {
			t.Errorf("instance %d has index %d, want %d", i, is.Index, i+1)
		}
		if is.Satisfied != want.Satisfied || is.ViolatedEvents != want.ViolatedEvents ||
			is.Rounds != want.Rounds || is.Resamplings != want.Resamplings || is.VarsFixed != want.VarsFixed {
			t.Errorf("instance %d diverges from solo:\nbatch: %+v\nsolo:  sat=%v violated=%d rounds=%d res=%d fixed=%d",
				i, is, want.Satisfied, want.ViolatedEvents, want.Rounds, want.Resamplings, want.VarsFixed)
		}
	}
	if !sum.Satisfied {
		t.Error("batch aggregate not satisfied although every instance is")
	}
}

// TestBatchInBatchDedup: identical instances inside one batch solve once;
// the copies are served as cache hits of the leader's result.
func TestBatchInBatchDedup(t *testing.T) {
	reg := obs.NewRegistry()
	s := realService(t, reg, 8)

	sub := JobSpec{Family: FamilySinkless, N: 16, Algorithm: AlgMTPar, Seed: 3}
	j, err := s.Submit(batchOf(true, sub, sub, sub))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	sum := j.View().Result
	hits := 0
	for _, is := range sum.Instances {
		if is.Err != "" {
			t.Fatalf("instance %d failed: %s", is.Index, is.Err)
		}
		if is.CacheHit {
			hits++
		}
		if is.Satisfied != sum.Instances[0].Satisfied || is.Rounds != sum.Instances[0].Rounds ||
			is.Resamplings != sum.Instances[0].Resamplings {
			t.Errorf("deduplicated instance %d differs from the leader: %+v vs %+v", is.Index, is, sum.Instances[0])
		}
	}
	if hits != 2 {
		t.Fatalf("%d of 3 identical instances were dedup hits, want 2", hits)
	}
	if got := reg.Counter("cache_stores_total").Value(); got != 1 {
		t.Errorf("cache_stores_total = %d, want 1 (only the leader solves)", got)
	}
	events, _, _ := j.EventsSince(0)
	rounds := 0
	for _, e := range events {
		if e.Kind != "round" {
			continue
		}
		rounds++
		if e.Instance != 1 {
			t.Errorf("round event from instance %d, want only the leader's (1)", e.Instance)
		}
	}
	if rounds == 0 {
		t.Error("the leader emitted no round events")
	}
}

// TestBatchSoloCacheInterchange: a cache entry written by a batch serves a
// later solo job bit-identically, and vice versa.
func TestBatchSoloCacheInterchange(t *testing.T) {
	s := realService(t, obs.NewRegistry(), 8)

	sub := JobSpec{Family: FamilySinkless, N: 20, Algorithm: AlgMTPar, Seed: 11}

	// Batch populates, solo hits.
	bsum := runJob(t, s, batchOf(true, sub))
	withCache := sub
	withCache.Cache = true
	warm := runJob(t, s, withCache)
	if !warm.CacheHit {
		t.Fatal("solo job missed the cache entry a batch wrote")
	}
	is := bsum.Instances[0]
	if warm.Satisfied != is.Satisfied || warm.ViolatedEvents != is.ViolatedEvents ||
		warm.Rounds != is.Rounds || warm.Resamplings != is.Resamplings {
		t.Fatalf("solo hit differs from the batch result:\nsolo:  %+v\nbatch: %+v", warm, is)
	}

	// Solo populates, batch hits.
	sub2 := JobSpec{Family: FamilySinkless, N: 20, Algorithm: AlgMTSeq, Seed: 12}
	withCache2 := sub2
	withCache2.Cache = true
	cold := runJob(t, s, withCache2)
	bsum2 := runJob(t, s, batchOf(true, sub2))
	is2 := bsum2.Instances[0]
	if !is2.CacheHit {
		t.Fatal("batch instance missed the cache entry a solo job wrote")
	}
	if is2.Satisfied != cold.Satisfied || is2.Resamplings != cold.Resamplings {
		t.Fatalf("batch hit differs from the solo result:\nbatch: %+v\nsolo:  %+v", is2, cold)
	}
}

// TestBatchEvents: the NDJSON stream of a batch job is multiplexed by the
// 1-based instance id — one instance_end per instance, and every round
// event tagged with the instance that ran it.
func TestBatchEvents(t *testing.T) {
	s := realService(t, obs.NewRegistry(), 0)

	subs := []JobSpec{
		{Family: FamilySinkless, N: 16, Algorithm: AlgMTPar, Seed: 1},
		{Family: FamilySinkless, N: 16, Algorithm: AlgMTPar, Seed: 2},
	}
	j, err := s.Submit(batchOf(false, subs...))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	events, _, _ := j.EventsSince(0)

	ends := map[int]bool{}
	rounds := 0
	for _, e := range events {
		switch e.Kind {
		case "instance_end":
			if e.Instance < 1 || e.Instance > len(subs) {
				t.Fatalf("instance_end with out-of-range instance id %d", e.Instance)
			}
			if ends[e.Instance] {
				t.Fatalf("duplicate instance_end for instance %d", e.Instance)
			}
			ends[e.Instance] = true
		case "round":
			if e.Instance < 1 || e.Instance > len(subs) {
				t.Fatalf("round event with out-of-range instance id %d", e.Instance)
			}
			rounds++
		}
	}
	if len(ends) != len(subs) {
		t.Fatalf("saw instance_end for %d instances, want %d", len(ends), len(subs))
	}
	if rounds == 0 {
		t.Error("batch job emitted no round events")
	}
}

// TestBatchPartialFailure: a broken instance fails alone; the rest of the
// batch completes and the aggregate reports unsatisfied.
func TestBatchPartialFailure(t *testing.T) {
	s := realService(t, obs.NewRegistry(), 0)

	sum := runJob(t, s, batchOf(false,
		JobSpec{Family: FamilySinkless, N: 16, Algorithm: AlgMTPar, Seed: 1},
		JobSpec{Family: FamilyInline, Instance: []byte(`{"broken":`), Algorithm: AlgMTPar, Seed: 2},
	))
	good, bad := sum.Instances[0], sum.Instances[1]
	if good.Err != "" || !good.Satisfied {
		t.Fatalf("healthy instance affected by sibling failure: %+v", good)
	}
	if bad.Err == "" {
		t.Fatal("broken inline instance reported no error")
	}
	if sum.Satisfied {
		t.Error("aggregate satisfied although an instance failed")
	}
}

// TestBatchCancelStartsNoMoreLeaders: cancelling a running batch stops the
// leader that is running and starts no later one. The stopped leader ends
// with its cancellation error, the leaders that never started get no
// instance_end, and the job ends cancelled.
func TestBatchCancelStartsNoMoreLeaders(t *testing.T) {
	s := realService(t, obs.NewRegistry(), 0)

	// One always-violated event under an effectively unbounded round budget:
	// mtpar resamples it until the cancel lands.
	stuck := JobSpec{
		Family:    FamilyInline,
		Instance:  []byte(`{"version":1,"variables":[{"probs":[0.5,0.5]}],"events":[{"kind":"allEqual","scope":[0]}]}`),
		Algorithm: AlgMTPar, Seed: 1, MaxRounds: 1 << 30,
	}
	js := batchOf(false, stuck,
		JobSpec{Family: FamilySinkless, N: 16, Algorithm: AlgMTPar, Seed: 2},
		JobSpec{Family: FamilySinkless, N: 16, Algorithm: AlgSeq, Seed: 3},
	)
	js.Workers = 1 // the leaders run one at a time, in batch order
	j, err := s.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	for from := 0; ; {
		events, more, state := j.EventsSince(from)
		from += len(events)
		started := false
		for _, e := range events {
			started = started || (e.Kind == "round" && e.Instance == 1)
		}
		if started {
			break
		}
		if state.Terminal() {
			t.Fatalf("batch ended %s before instance 1 emitted a round", state)
		}
		<-more
	}
	if _, err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateCancelled)

	events, _, _ := j.EventsSince(0)
	ends := map[int]string{}
	for _, e := range events {
		if e.Kind == "round" && e.Instance != 1 {
			t.Errorf("round event from instance %d, which should never have started", e.Instance)
		}
		if e.Kind == "instance_end" {
			ends[e.Instance] = e.Err
		}
	}
	if len(ends) != 1 || !strings.Contains(ends[1], "cancel") {
		t.Fatalf("instance_end events = %v, want only instance 1's, with a cancellation error", ends)
	}
}

// TestBatchSpecValidation: nested batches and oversized batches are
// rejected at submit time.
func TestBatchSpecValidation(t *testing.T) {
	s := realService(t, obs.NewRegistry(), 0)

	nested := batchOf(false, batchOf(false, JobSpec{}))
	if _, err := s.Submit(nested); err == nil || !strings.Contains(err.Error(), "nested") {
		t.Fatalf("nested batch: err = %v, want nested-batch rejection", err)
	}

	big := JobSpec{Batch: make([]JobSpec, maxBatch+1)}
	if _, err := s.Submit(big); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

// TestBatchRequestJobSpec: the HTTP wire format stamps templates, applies
// seed policies, and validates count/seed agreement.
func TestBatchRequestJobSpec(t *testing.T) {
	tmpl := JobSpec{Family: FamilySinkless, N: 16, Algorithm: AlgMTPar, Seed: 10}

	js, err := BatchRequest{Template: tmpl, Count: 3, VarySeed: true, Cache: true}.JobSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(js.Batch) != 3 || !js.Cache {
		t.Fatalf("stamped batch = %+v", js)
	}
	for i, sub := range js.Batch {
		if sub.Seed != 10+uint64(i) {
			t.Errorf("instance %d seed = %d, want %d", i, sub.Seed, 10+uint64(i))
		}
	}

	js, err = BatchRequest{Template: tmpl, Seeds: []uint64{7, 8}}.JobSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(js.Batch) != 2 || js.Batch[0].Seed != 7 || js.Batch[1].Seed != 8 {
		t.Fatalf("seeded batch = %+v", js.Batch)
	}

	js, err = BatchRequest{Template: tmpl, Count: 4}.JobSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range js.Batch {
		if sub.Seed != 10 {
			t.Errorf("identical stamping changed the seed: %d", sub.Seed)
		}
	}

	if _, err := (BatchRequest{Template: tmpl}).JobSpec(); err == nil {
		t.Error("empty batch request accepted")
	}
	if _, err := (BatchRequest{Template: tmpl, Count: 2, Seeds: []uint64{1, 2, 3}}.JobSpec()); err == nil {
		t.Error("count/seeds mismatch accepted")
	}
}

// TestBatchPrepareMixed drives one batch through every prepare-phase case:
// an entry an earlier job cached, an in-batch duplicate, an unbuildable
// spec listed twice, a LOCAL (dist) member, and an mtpar and a seq group.
// At every worker count each instance matches its solo job, the aggregate
// counts every member whose build succeeded, both copies of the bad spec
// carry one "building instance" error, and each of the six leaders shows
// its own build_instance span under the job's trace — while a fully cached
// resubmission builds nothing.
func TestBatchPrepareMixed(t *testing.T) {
	earlier := JobSpec{Family: FamilySinkless, N: 24, Algorithm: AlgMTPar, Seed: 31}
	dup := JobSpec{Family: FamilySinkless, N: 20, Algorithm: AlgMTPar, Seed: 32}
	bad := JobSpec{Family: FamilySinkless, N: 15, Degree: 3, Algorithm: AlgMTPar, Seed: 33} // n·degree odd
	subs := []JobSpec{
		earlier,
		dup,
		{Family: FamilySinkless, N: 16, Degree: 3, Algorithm: AlgSeq, Seed: 35},
		bad,
		{Family: FamilySinkless, N: 12, Algorithm: AlgDist, Seed: 34},
		dup,
		{Family: FamilyHyper, N: 12, Algorithm: AlgMTPar, Seed: 37},
		bad,
		{Family: FamilySinkless, N: 20, Algorithm: AlgSeq, Seed: 36},
	}
	isBad := func(i int) bool { return i == 3 || i == 7 }

	ref := realService(t, obs.NewRegistry(), 0)
	solo := make([]*Summary, len(subs))
	wantEvents, wantVars := 0, 0
	for i, sub := range subs {
		if isBad(i) {
			continue
		}
		solo[i] = runJob(t, ref, sub)
		wantEvents += solo[i].NumEvents
		wantVars += solo[i].NumVars
	}
	// Every member whose build succeeds counts once, cache hits and
	// in-batch duplicates included; pinned so the sum cannot drift.
	if wantEvents != 124 || wantVars != 132 {
		t.Fatalf("solo sizes sum to %d events, %d vars; want 124, 132", wantEvents, wantVars)
	}

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var sink traceBuf
			rec := obs.NewRecorder(&sink)
			s := New(Config{QueueCap: 16, MaxInFlight: 2, Metrics: obs.NewRegistry(), CacheSize: 32, Trace: rec})
			t.Cleanup(func() { s.Shutdown(context.Background()) })

			warm := earlier
			warm.Cache = true
			runJob(t, s, warm)

			js := batchOf(true, subs...)
			js.Workers = workers
			j, err := s.Submit(js)
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, j, StateDone)
			sum := j.View().Result

			for i, is := range sum.Instances {
				if isBad(i) {
					if !strings.HasPrefix(is.Err, "building instance: ") {
						t.Errorf("instance %d: err = %q, want a building instance error", i+1, is.Err)
					}
					continue
				}
				want := solo[i]
				if is.Err != "" {
					t.Fatalf("instance %d failed: %s", i+1, is.Err)
				}
				if is.Satisfied != want.Satisfied || is.ViolatedEvents != want.ViolatedEvents ||
					is.Rounds != want.Rounds || is.Resamplings != want.Resamplings || is.VarsFixed != want.VarsFixed {
					t.Errorf("instance %d diverges from solo:\nbatch: %+v\nsolo:  %+v", i+1, is, want)
				}
				if wantHit := i == 0 || i == 5; is.CacheHit != wantHit {
					t.Errorf("instance %d: cache_hit = %v, want %v", i+1, is.CacheHit, wantHit)
				}
			}
			if a, b := sum.Instances[3].Err, sum.Instances[7].Err; a != b {
				t.Errorf("the two copies of the bad spec report different errors: %q vs %q", a, b)
			}
			if sum.NumEvents != wantEvents || sum.NumVars != wantVars || sum.Satisfied {
				t.Errorf("aggregate = %d events, %d vars, satisfied %v; want %d, %d, false",
					sum.NumEvents, sum.NumVars, sum.Satisfied, wantEvents, wantVars)
			}

			// A resubmission without the bad spec is served wholly from
			// the cache.
			var good []JobSpec
			for i, sub := range subs {
				if !isBad(i) {
					good = append(good, sub)
				}
			}
			rj, err := s.Submit(batchOf(true, good...))
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, rj, StateDone)
			for _, is := range rj.View().Result.Instances {
				if !is.CacheHit {
					t.Errorf("resubmitted instance %d missed the cache", is.Index)
				}
			}

			if err := rec.Flush(); err != nil {
				t.Fatal(err)
			}
			builds, resubBuilds := 0, 0
			for _, e := range sink.events(t) {
				if e.Kind != "span" || e.Phase != "build_instance" {
					continue
				}
				switch e.Trace {
				case j.TraceID:
					builds++
				case rj.TraceID:
					resubBuilds++
				}
			}
			// Leaders: the first dup, both seq specs, the first bad copy,
			// the dist member and the hyper mtpar member.
			if builds != 6 {
				t.Errorf("batch emitted %d build_instance spans, want 6 (one per leader)", builds)
			}
			if resubBuilds != 0 {
				t.Errorf("fully cached resubmission emitted %d build_instance spans, want 0", resubBuilds)
			}
		})
	}
}
