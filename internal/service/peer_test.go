package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// swapHandler lets an httptest server exist (so its URL is known) before
// the clustered services that need those URLs in their membership are
// constructed.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// clusterPair builds a real two-node cluster "a"/"b": each node runs the
// full service (real RunSpec) behind its own HTTP server, with membership
// pointing at the other.
func clusterPair(t testing.TB) (services map[string]*Service, regs map[string]*obs.Registry) {
	t.Helper()
	ha, hb := &swapHandler{}, &swapHandler{}
	tsa, tsb := httptest.NewServer(ha), httptest.NewServer(hb)
	nodes := map[string]string{"a": tsa.URL, "b": tsb.URL}
	services = make(map[string]*Service)
	regs = map[string]*obs.Registry{"a": obs.NewRegistry(), "b": obs.NewRegistry()}
	for _, name := range []string{"a", "b"} {
		s := New(Config{
			QueueCap: 64, MaxInFlight: 4, CacheSize: 8, Metrics: regs[name],
			Cluster: &ClusterConfig{Self: name, Nodes: nodes, FillWaitMS: 100},
		})
		services[name] = s
	}
	ha.set(NewHandler(services["a"], regs["a"]))
	hb.set(NewHandler(services["b"], regs["b"]))
	t.Cleanup(func() {
		tsa.Close()
		tsb.Close()
		for _, s := range services {
			s.Shutdown(context.Background())
		}
	})
	return services, regs
}

// seedOwnedBy finds a cacheSpec seed whose cache key the given node owns,
// plus its key — so tests can aim jobs at the owner or the non-owner
// deliberately.
func seedOwnedBy(t testing.TB, s *Service, owner string) (uint64, uint64) {
	t.Helper()
	for seed := uint64(1); seed < 64; seed++ {
		js, err := cacheSpec(seed).withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		key := cacheKey(js)
		if s.peers.owner(key) == owner {
			return seed, key
		}
	}
	t.Fatalf("no seed in [1,64) hashes to node %q", owner)
	return 0, 0
}

// TestPeerFillServesWarmSummary: a result solved on the key's home node is
// served to a miss on the other node through the peer fill — bit-identical,
// marked as a (peer) cache hit, with no second solve.
func TestPeerFillServesWarmSummary(t *testing.T) {
	services, regs := clusterPair(t)
	sa, sb := services["a"], services["b"]
	seed, _ := seedOwnedBy(t, sa, "a")

	cold := runJob(t, sa, cacheSpec(seed)) // solved and cached on the owner
	if cold.CacheHit {
		t.Fatal("cold solve marked as a cache hit")
	}

	j, err := sb.Submit(cacheSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	warm := j.View().Result
	if !warm.CacheHit {
		t.Fatal("job on the non-owner was not served through the peer fill")
	}
	normalized := *warm
	normalized.CacheHit = false
	if !reflect.DeepEqual(*cold, normalized) {
		t.Fatalf("peer-filled result not bit-identical to the owner's solve:\ncold: %+v\nwarm: %+v", *cold, normalized)
	}
	events, _, _ := jobEvents(t, j, 0)
	peerHit := false
	for _, e := range events {
		if e.Kind == "cache_hit" && e.Peer {
			peerHit = true
		}
	}
	if !peerHit {
		t.Error("no cache_hit event with peer=true in the stream")
	}
	if got := regs["b"].Counter("peer_fill_hits_total").Value(); got != 1 {
		t.Errorf("peer_fill_hits_total = %d on b, want 1", got)
	}
	if got := regs["a"].Counter("peer_serves_total").Value(); got != 1 {
		t.Errorf("peer_serves_total = %d on a, want 1", got)
	}
}

// TestPeerWriteThroughPopulatesHome: a solve on a non-owner node is written
// through to the key's home node, so an isomorphic resubmission landing on
// the owner is a plain local cache hit — no re-solve anywhere. This is the
// cluster's cache-locality contract: wherever a job first lands, the entry
// ends up at the home node every later submission is routed to.
func TestPeerWriteThroughPopulatesHome(t *testing.T) {
	services, regs := clusterPair(t)
	sa, sb := services["a"], services["b"]
	seed, _ := seedOwnedBy(t, sa, "a")

	cold := runJob(t, sb, cacheSpec(seed)) // non-owner solves as cluster leader
	if got := regs["b"].Counter("peer_fill_leads_total").Value(); got != 1 {
		t.Errorf("peer_fill_leads_total = %d on b, want 1 (claim granted)", got)
	}
	if got := regs["a"].Counter("peer_claims_granted_total").Value(); got != 1 {
		t.Errorf("peer_claims_granted_total = %d on a, want 1", got)
	}

	// The write-through may complete just after the job is terminal; wait
	// for the store counter before asserting the owner's cache.
	deadline := time.Now().Add(5 * time.Second)
	for regs["b"].Counter("peer_stores_total").Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("write-through store never reached the owner")
		}
		time.Sleep(time.Millisecond)
	}

	warm := runJob(t, sa, cacheSpec(seed))
	if !warm.CacheHit {
		t.Fatal("owner-side resubmission missed the cache after write-through")
	}
	normalized := *warm
	normalized.CacheHit = false
	if !reflect.DeepEqual(*cold, normalized) {
		t.Fatalf("write-through result not bit-identical:\ncold: %+v\nwarm: %+v", *cold, normalized)
	}
	if got := regs["b"].Counter("peer_fill_hits_total").Value(); got != 0 {
		t.Errorf("peer_fill_hits_total = %d on b, want 0 (b solved, never filled)", got)
	}
}

// TestPeerFillDeadOwnerFallsBack: with the key's home node unreachable the
// peer protocol must never reduce availability — the job solves locally.
func TestPeerFillDeadOwnerFallsBack(t *testing.T) {
	reg := obs.NewRegistry()
	hb := &swapHandler{}
	tsb := httptest.NewServer(hb)
	// Node "a" is a dead address (reserved port 1 refuses connections).
	nodes := map[string]string{"a": "http://127.0.0.1:1", "b": tsb.URL}
	sb := New(Config{
		QueueCap: 64, MaxInFlight: 4, CacheSize: 8, Metrics: reg,
		Cluster: &ClusterConfig{Self: "b", Nodes: nodes, FillWaitMS: 50,
			Client: &http.Client{Timeout: 200 * time.Millisecond}},
	})
	hb.set(NewHandler(sb, reg))
	t.Cleanup(func() {
		tsb.Close()
		sb.Shutdown(context.Background())
	})

	seed, _ := seedOwnedBy(t, sb, "a")
	sum := runJob(t, sb, cacheSpec(seed))
	if sum.CacheHit {
		t.Fatal("job behind a dead owner reported a cache hit")
	}
	if !sum.Satisfied {
		t.Fatal("job behind a dead owner did not solve")
	}
	if got := reg.Counter("peer_fill_errors_total").Value(); got < 1 {
		t.Errorf("peer_fill_errors_total = %d, want >= 1", got)
	}
}

// TestPeerClaims: the owner-side claim table grants exactly one claim per
// key, wakes waiters on release, and expires stale claims so a crashed
// claimer cannot wedge the key.
func TestPeerClaims(t *testing.T) {
	pc := newPeerClaims()
	granted, _ := pc.claim(7, time.Minute)
	if !granted {
		t.Fatal("first claim not granted")
	}
	granted, wait := pc.claim(7, time.Minute)
	if granted {
		t.Fatal("second claim granted while the first is live")
	}
	select {
	case <-wait:
		t.Fatal("waiter woke before release")
	default:
	}
	pc.release(7)
	select {
	case <-wait:
	case <-time.After(time.Second):
		t.Fatal("release did not wake the waiter")
	}
	// Released key: claimable again.
	if granted, _ := pc.claim(7, time.Minute); !granted {
		t.Fatal("claim after release not granted")
	}
	// Expired claim: a fresh claimer takes over.
	if granted, _ := pc.claim(9, time.Nanosecond); !granted {
		t.Fatal("first claim on key 9 not granted")
	}
	time.Sleep(time.Millisecond)
	if granted, _ := pc.claim(9, time.Minute); !granted {
		t.Fatal("expired claim was not reclaimable")
	}
	pc.release(7)
	pc.release(9)
	pc.release(9) // idempotent on an empty table
}

// TestCacheEvictRacesSingleFlight pins the follower hand-off against LRU
// eviction racing the leader's store: the leader's entry is evicted from a
// capacity-1 cache after its put but before the followers wake (simulated
// here by evicting before complete, the worst interleaving). Followers must
// still receive the leader's summary from the flight entry itself — neither
// losing the result nor triggering a second solve. Run under -race.
func TestCacheEvictRacesSingleFlight(t *testing.T) {
	reg := obs.NewRegistry()
	cache := newResultCache(1, reg)
	flights := newFlightGroup(reg)

	const key = uint64(42)
	_, leader := flights.begin(key)
	if !leader {
		t.Fatal("first begin is not the leader")
	}

	const followers = 8
	results := make(chan *Summary, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, lead := flights.begin(key)
			if lead {
				results <- nil // a follower stole leadership: bug
				return
			}
			if err := flights.wait(context.Background(), f); err != nil {
				results <- nil
				return
			}
			results <- f.result()
		}()
	}
	// All followers must be parked on the flight before the leader finishes.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("cache_singleflight_waits_total").Value() < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers joined the flight",
				reg.Counter("cache_singleflight_waits_total").Value(), followers)
		}
		time.Sleep(time.Millisecond)
	}

	sum := &Summary{Algorithm: AlgMTPar, Satisfied: true, Resamplings: 17}
	cache.put(key, sum)        // the leader's store...
	cache.put(1, &Summary{})   // ...evicted by an unrelated job before
	cache.put(2, &Summary{})   // any follower wakes (capacity 1)
	flights.complete(key, sum) // leader finishes; followers wake now

	wg.Wait()
	close(results)
	if _, ok := cache.get(key); ok {
		t.Fatal("test setup broken: leader's entry survived eviction")
	}
	got := 0
	for r := range results {
		if r == nil {
			t.Fatal("a follower lost the leader's result (or re-ran the solve)")
		}
		if !r.Satisfied || r.Resamplings != 17 {
			t.Fatalf("follower received a wrong summary: %+v", r)
		}
		if r == sum {
			t.Fatal("follower shares the leader's Summary pointer (must be a copy)")
		}
		got++
	}
	if got != followers {
		t.Fatalf("%d/%d followers got a result", got, followers)
	}
}

// TestCacheEvictSingleFlightStress drives the full service path with a
// capacity-1 cache and concurrent identical + distinct jobs, so eviction,
// stores and flight hand-offs interleave freely under the race detector.
// Every job must terminate satisfied with the bit-identical per-key result.
func TestCacheEvictSingleFlightStress(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{QueueCap: 256, MaxInFlight: 8, Metrics: reg, CacheSize: 1})
	defer s.Shutdown(context.Background())

	const perSeed, seeds = 6, 3
	jobs := make([]*Job, 0, perSeed*seeds)
	for i := 0; i < perSeed; i++ {
		for seed := uint64(1); seed <= seeds; seed++ {
			j, err := s.Submit(cacheSpec(seed))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	bySeed := make(map[uint64]*Summary)
	for _, j := range jobs {
		waitState(t, j, StateDone)
		res := j.View().Result
		if res == nil || !res.Satisfied {
			t.Fatalf("job %s did not finish satisfied: %+v", j.ID, res)
		}
		norm := *res
		norm.CacheHit = false
		seed := j.Spec.Seed
		if prev, ok := bySeed[seed]; ok {
			if !reflect.DeepEqual(*prev, norm) {
				t.Fatalf("seed %d results diverged:\n%+v\n%+v", seed, *prev, norm)
			}
		} else {
			bySeed[seed] = &norm
		}
	}
}
