package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// elasticNode is one clustered service whose HTTP shell exists before the
// service — so its URL can appear in boot memberships — built the same way
// as clusterPair but with per-node membership and tuning: the joiner in an
// elasticity test boots knowing only itself.
type elasticNode struct {
	svc *Service
	reg *obs.Registry
	ts  *httptest.Server
	h   *swapHandler
}

// newElasticShell starts the HTTP server shell; start attaches the service.
func newElasticShell(t testing.TB) *elasticNode {
	t.Helper()
	n := &elasticNode{reg: obs.NewRegistry(), h: &swapHandler{}}
	n.ts = httptest.NewServer(n.h)
	t.Cleanup(n.ts.Close)
	return n
}

func (n *elasticNode) start(t testing.TB, name string, nodes map[string]string, tune func(*ClusterConfig)) {
	t.Helper()
	cc := &ClusterConfig{Self: name, Nodes: nodes, FillWaitMS: 100}
	if tune != nil {
		tune(cc)
	}
	n.svc = New(Config{QueueCap: 128, MaxInFlight: 4, CacheSize: 256, Metrics: n.reg, Cluster: cc})
	n.h.set(NewHandler(n.svc, n.reg))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		n.svc.Shutdown(ctx)
		cancel()
	})
}

// waitEpoch polls until the service's membership reaches epoch e.
func waitEpoch(t *testing.T, s *Service, e int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.peers.membership().Epoch < e {
		if time.Now().After(deadline) {
			t.Fatalf("node %s stuck at epoch %d, want %d", s.peers.self, s.peers.membership().Epoch, e)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJoinWarmHandoff is the runtime-join acceptance test: a fresh node
// announces itself to a seed of a populated two-node cluster, every member
// converges on the new epoch, and the previous owners stream the joiner's
// ring slice into its cache — at least 90% of the entries the joiner now
// owns must be warm right after the handoff, served as cache hits without
// a solve.
func TestJoinWarmHandoff(t *testing.T) {
	a, b := newElasticShell(t), newElasticShell(t)
	boot := map[string]string{"a": a.ts.URL, "b": b.ts.URL}
	a.start(t, "a", boot, nil)
	b.start(t, "b", boot, nil)

	// Populate: 32 distinct cached results; write-through guarantees every
	// entry lives on its home node regardless of where it solved.
	const seeds = 32
	for seed := uint64(1); seed <= seeds; seed++ {
		runJob(t, a.svc, cacheSpec(seed))
	}

	// The joiner boots knowing only itself (epoch 0) and announces to a.
	c := newElasticShell(t)
	c.start(t, "c", map[string]string{"c": c.ts.URL}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.svc.AnnounceJoin(ctx, a.ts.URL); err != nil {
		t.Fatalf("join announce: %v", err)
	}

	// Every member converges on the joined epoch (seed fan-out + adoption).
	for _, s := range []*Service{a.svc, b.svc, c.svc} {
		waitEpoch(t, s, 1)
	}
	mem := c.svc.peers.membership()
	if len(mem.Nodes) != 3 {
		t.Fatalf("joiner's membership has %d nodes, want 3: %v", len(mem.Nodes), mem.Nodes)
	}

	// The entries c now owns were all cached on their previous owners (the
	// write-through invariant), so each should arrive via the handoff.
	ring := c.svc.peers.ringNow()
	var owned []uint64
	for seed := uint64(1); seed <= seeds; seed++ {
		js, err := cacheSpec(seed).withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		key := cacheKey(js)
		if ring.Owner(key) == "c" {
			owned = append(owned, key)
		}
	}
	if len(owned) == 0 {
		t.Skip("no seed in [1,32] hashes to the joiner with these vnode defaults")
	}

	warm := 0
	deadline := time.Now().Add(10 * time.Second)
	for {
		warm = 0
		for _, key := range owned {
			if _, ok := c.svc.cache.get(key); ok {
				warm++
			}
		}
		if warm*10 >= len(owned)*9 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if warm*10 < len(owned)*9 {
		t.Fatalf("joiner warm on %d of %d owned entries, want >= 90%%", warm, len(owned))
	}
	// The joiner counts a chunk after storing it and a donor after its POST
	// returns, so an entry can be visible before either count: wait for both.
	received := func() int64 { return c.reg.Counter("peer_handoff_entries_received_total").Value() }
	sent := func() int64 {
		return a.reg.Counter("peer_handoff_entries_sent_total").Value() +
			b.reg.Counter("peer_handoff_entries_sent_total").Value()
	}
	for (received() < int64(warm) || sent() < int64(warm)) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := received(); got < int64(warm) {
		t.Errorf("peer_handoff_entries_received_total = %d on joiner, want >= %d", got, warm)
	}
	if got := sent(); got < int64(warm) {
		t.Errorf("donors sent %d handoff entries, want >= %d", got, warm)
	}

	// A warm entry serves as a cache hit on the joiner — no solve.
	for seed := uint64(1); seed <= seeds; seed++ {
		js, _ := cacheSpec(seed).withDefaults()
		key := cacheKey(js)
		if ring.Owner(key) != "c" {
			continue
		}
		if _, ok := c.svc.cache.get(key); !ok {
			continue
		}
		sum := runJob(t, c.svc, cacheSpec(seed))
		if !sum.CacheHit {
			t.Fatalf("seed %d owned and warm on the joiner was not a cache hit", seed)
		}
		break
	}
}

// TestLeaveReverseHandoff: a planned leave streams every cached entry to
// its next owner before the membership without the leaver fans out — the
// survivor ends up holding the leaver's whole cache and the new epoch.
func TestLeaveReverseHandoff(t *testing.T) {
	a, b := newElasticShell(t), newElasticShell(t)
	boot := map[string]string{"a": a.ts.URL, "b": b.ts.URL}
	a.start(t, "a", boot, nil)
	b.start(t, "b", boot, nil)

	const seeds = 16
	for seed := uint64(1); seed <= seeds; seed++ {
		runJob(t, b.svc, cacheSpec(seed))
	}
	held := b.svc.cache.snapshotIf(nil)
	if len(held) == 0 {
		t.Fatal("leaver's cache is empty; nothing to hand off")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b.svc.LeaveCluster(ctx)

	waitEpoch(t, a.svc, 1)
	mem := a.svc.peers.membership()
	if _, still := mem.Nodes["b"]; still {
		t.Fatalf("survivor still lists the leaver: %v", mem.Nodes)
	}
	for _, e := range held {
		if _, ok := a.svc.cache.get(e.key); !ok {
			t.Fatalf("entry %#x held by the leaver never reached the survivor", e.key)
		}
	}
	if got := a.reg.Counter("peer_handoff_entries_received_total").Value(); got < 1 {
		t.Errorf("peer_handoff_entries_received_total = %d on survivor, want >= 1", got)
	}
}

// TestHotReplicationToSuccessor: the hottest owned entries write-through
// replicate to the ring successor on the replication cadence, so killing
// the owner without any leave protocol (the SIGKILL scenario) leaves the
// key warm — the successor serves it as a local cache hit.
func TestHotReplicationToSuccessor(t *testing.T) {
	tune := func(cc *ClusterConfig) {
		cc.HotReplicas = 8
		cc.ReplicateInterval = 20 * time.Millisecond
	}
	a, b := newElasticShell(t), newElasticShell(t)
	boot := map[string]string{"a": a.ts.URL, "b": b.ts.URL}
	a.start(t, "a", boot, tune)
	b.start(t, "b", boot, tune)

	seed, key := seedOwnedBy(t, a.svc, "a")
	cold := runJob(t, a.svc, cacheSpec(seed))
	for i := 0; i < 3; i++ { // heat the entry: replication picks top hits
		runJob(t, a.svc, cacheSpec(seed))
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := b.svc.cache.get(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hot entry %#x never replicated to the successor", key)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The owner counts a replica after the successor's PUT returns, so the
	// entry can land before the count: wait for it.
	for a.reg.Counter("peer_replicated_total").Value() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := a.reg.Counter("peer_replicated_total").Value(); got < 1 {
		t.Errorf("peer_replicated_total = %d on owner, want >= 1", got)
	}

	// SIGKILL the owner (no leave, no drain) — the successor still serves
	// the key warm, from its own cache, without touching the dead owner.
	a.ts.Close()
	warm := runJob(t, b.svc, cacheSpec(seed))
	if !warm.CacheHit {
		t.Fatal("successor missed on a replicated hot key after the owner died")
	}
	if warm.AssignmentHash != cold.AssignmentHash {
		t.Fatalf("replicated result diverged: %#x vs %#x", warm.AssignmentHash, cold.AssignmentHash)
	}
}

// TestNodeClusterEndpoints drives the node-side elasticity HTTP surface
// directly: GET /cluster (identity + epoch + cache size, the anti-entropy
// source), admin POST /cluster/members (join/leave minting, every
// rejection path), and the malformed-payload handling of the peer
// membership/handoff endpoints — bad input is a 400 or a skipped entry,
// never a panic or a membership change.
func TestNodeClusterEndpoints(t *testing.T) {
	a := newElasticShell(t)
	a.start(t, "a", map[string]string{"a": a.ts.URL}, nil)

	get := func() NodeClusterStatus {
		t.Helper()
		resp, err := http.Get(a.ts.URL + "/cluster")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /cluster answered %d", resp.StatusCode)
		}
		var ns NodeClusterStatus
		if err := json.NewDecoder(resp.Body).Decode(&ns); err != nil {
			t.Fatal(err)
		}
		return ns
	}
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(a.ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if ns := get(); ns.Self != "a" || ns.Epoch != 0 || len(ns.Nodes) != 1 {
		t.Fatalf("boot status = %+v, want self a, epoch 0, 1 node", ns)
	}

	for _, bad := range []string{
		`{nope`,                           // malformed JSON
		`{"action":"join","name":"b"}`,    // join without url
		`{"action":"leave"}`,              // leave without name
		`{"action":"promote","name":"b"}`, // unknown action
	} {
		if code := post("/cluster/members", bad); code != http.StatusBadRequest {
			t.Fatalf("POST /cluster/members %q answered %d, want 400", bad, code)
		}
	}
	if ns := get(); ns.Epoch != 0 {
		t.Fatalf("rejected changes still minted epoch %d", ns.Epoch)
	}

	if code := post("/cluster/members", `{"action":"join","name":"b","url":"http://127.0.0.1:1"}`); code != http.StatusOK {
		t.Fatalf("admin join answered %d", code)
	}
	if ns := get(); ns.Epoch != 1 || len(ns.Nodes) != 2 {
		t.Fatalf("post-join status = %+v, want epoch 1 with 2 nodes", ns)
	}
	if code := post("/cluster/members", `{"action":"leave","name":"b"}`); code != http.StatusOK {
		t.Fatalf("admin leave answered %d", code)
	}
	if ns := get(); ns.Epoch != 2 || len(ns.Nodes) != 1 {
		t.Fatalf("post-leave status = %+v, want epoch 2 with 1 node", ns)
	}

	if code := post("/v1/peer/membership", `{nope`); code != http.StatusBadRequest {
		t.Fatalf("bad membership fan-out answered %d, want 400", code)
	}
	if code := post("/v1/peer/handoff", `{nope`); code != http.StatusBadRequest {
		t.Fatalf("bad handoff chunk answered %d, want 400", code)
	}
	// A chunk whose entries are unparseable is accepted and skipped —
	// handoff failures must degrade to misses, not errors.
	if code := post("/v1/peer/handoff",
		`{"from":"x","epoch":2,"entries":[{"key":"zzz","summary":"bad"},{"key":"0f","summary":"{\"partial\":true}"}]}`); code/100 != 2 {
		t.Fatalf("skippable handoff chunk answered %d, want 2xx", code)
	}
	if got := a.svc.cache.len(); got != 0 {
		t.Fatalf("malformed handoff entries landed in the cache (len %d)", got)
	}
}

// TestAnnounceJoinFailurePaths: announcing is best-effort with retries —
// a non-clustered service refuses outright, and a seed that answers
// garbage or nothing surfaces an error once the context gives up instead
// of hanging the boot.
func TestAnnounceJoinFailurePaths(t *testing.T) {
	plain := New(Config{QueueCap: 4, MaxInFlight: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		plain.Shutdown(ctx)
		cancel()
	})
	if err := plain.AnnounceJoin(context.Background(), "http://127.0.0.1:1"); err == nil {
		t.Fatal("non-clustered AnnounceJoin succeeded")
	}

	a := newElasticShell(t)
	a.start(t, "a", map[string]string{"a": a.ts.URL}, nil)

	for name, seed := range map[string]http.HandlerFunc{
		"seed 500s":         func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusInternalServerError) },
		"seed answers junk": func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "not json") },
	} {
		ts := httptest.NewServer(seed)
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		err := a.svc.AnnounceJoin(ctx, ts.URL)
		cancel()
		ts.Close()
		if err == nil {
			t.Fatalf("%s: AnnounceJoin succeeded", name)
		}
	}
	// Connection refused on every attempt.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := a.svc.AnnounceJoin(ctx, "http://127.0.0.1:1"); err == nil {
		t.Fatal("AnnounceJoin against a dead seed succeeded")
	}
	if got := a.svc.peers.membership().Epoch; got != 0 {
		t.Fatalf("failed announces mutated the membership (epoch %d)", got)
	}
}

// TestMembershipAdoptionIdempotent: re-delivering the same epoch (the
// fan-out and the anti-entropy sync race each other by design) neither
// re-triggers handoffs nor regresses the membership.
func TestMembershipAdoptionIdempotent(t *testing.T) {
	a := newElasticShell(t)
	a.start(t, "a", map[string]string{"a": a.ts.URL}, nil)

	next := a.svc.peers.membership().WithJoin("b", "http://127.0.0.1:1")
	if !a.svc.applyMembership(next, false) {
		t.Fatal("first adoption of the new epoch refused")
	}
	if a.svc.applyMembership(next, false) {
		t.Fatal("re-adoption of the same epoch accepted (not idempotent)")
	}
	stale := cluster.Membership{Epoch: 0, Nodes: map[string]string{"a": a.ts.URL}}
	if a.svc.applyMembership(stale, false) {
		t.Fatal("stale epoch adopted over a newer membership")
	}
	if got := a.svc.peers.membership().Epoch; got != next.Epoch {
		t.Fatalf("epoch = %d after idempotency churn, want %d", got, next.Epoch)
	}
}
