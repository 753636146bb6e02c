// Package router is the cluster routing tier of llld: a single front door
// over N llld nodes that places every job on its cache key's home node
// (consistent hashing, so isomorphic resubmissions always land where the
// warm entry lives), spills to the next preferred node when the home node
// is saturated or shedding, relays each job's event stream with continuous
// sequence numbers, and — when a node drains or dies mid-job — migrates
// the job's latest checkpoint to a surviving node, where it resumes
// bit-identically under the same trace ID. cmd/lllrouter serves it.
package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/service"
)

// Config parameterizes a Router.
type Config struct {
	// Nodes is the cluster membership, node name → base URL. Required.
	Nodes map[string]string
	// VNodes is the consistent-hash virtual-node count; must match the
	// nodes' own ClusterConfig (cluster.DefaultVNodes when 0).
	VNodes int
	// BoundedLoadFactor caps proactive placement imbalance: a candidate
	// whose router-tracked outstanding jobs exceed factor × (mean + 1) is
	// skipped in favor of the next preferred node — unless every candidate
	// is over, in which case the least loaded one is used (the cluster
	// never rejects what a node would accept). Default 2.
	BoundedLoadFactor float64
	// ProbeInterval is the health/load poll period (default 500ms).
	ProbeInterval time.Duration
	// Detector shapes the failure detector over those probes (suspect/down
	// thresholds, flap damping); zero fields take cluster.DetectorConfig
	// defaults.
	Detector cluster.DetectorConfig
	// SyncInterval is the membership anti-entropy cadence: the router polls
	// each node's GET /cluster, adopts any newer epoch it sees, and pushes
	// its own membership to nodes reporting an older one. Default 4×
	// ProbeInterval.
	SyncInterval time.Duration
	// MaxMigrations bounds how many times one job may be moved before the
	// router fails it (default 3).
	MaxMigrations int
	// Retention bounds the terminal routed jobs kept (default 1024).
	Retention int
	// Metrics receives the router_* families (nil disables).
	Metrics *obs.Registry
	// Client overrides the node-facing HTTP client; nil uses a default
	// with no overall timeout (event streams are long-lived).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.BoundedLoadFactor <= 0 {
		c.BoundedLoadFactor = 2
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = 4 * c.ProbeInterval
	}
	if c.MaxMigrations <= 0 {
		c.MaxMigrations = 3
	}
	if c.Retention <= 0 {
		c.Retention = 1024
	}
	return c
}

// Router is the routing tier. Create with New, stop with Shutdown.
// Membership is mutable: the router adopts newer epochs pushed through
// POST /cluster/members or discovered on node GET /cluster polls, and
// rebuilds its ring without a restart.
type Router struct {
	cfg     Config
	members *cluster.Members
	client  *http.Client

	memMu sync.Mutex
	mem   cluster.Membership
	ring  *cluster.Ring

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*routedJob
	order  []*routedJob
	nextID int64
	// terminal counts the routed jobs in order that have turned terminal.
	// A job adds one when its first terminal event is relayed and takes it
	// back when it is evicted, so eviction need not lock every job.
	terminal atomic.Int64

	m routerMetrics
}

type routerMetrics struct {
	jobs       *obs.Counter
	spills     *obs.Counter
	migrations *obs.Counter
	lost       *obs.Counter
	relayed    *obs.Counter
	rejected   *obs.Counter
	reloads    *obs.Counter // memberships adopted at runtime
	epoch      *obs.Gauge   // current membership epoch
}

// routedJob is the router's record of one job: where it currently lives,
// the relayed event buffer (continuous Seq across migrations), and the
// latest checkpoint it would move with.
type routedJob struct {
	id      string
	spec    service.JobSpec // as submitted (router adjustments applied)
	key     uint64          // placement key
	created time.Time

	mu        sync.Mutex
	trace     string
	node      string // current node
	nodeJobID string // id on that node
	nodeSeen  int    // events consumed from the current node's stream
	log       service.EventLog
	state     service.State
	errMsg    string
	result    *service.Summary
	ckpt      *fault.Checkpoint
	migrated  int
	cancelled bool // cancel came through the router
}

// New builds and starts a Router: membership probing begins immediately.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("router: no nodes configured")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	mem := cluster.Membership{Epoch: 0, Nodes: map[string]string{}}
	for name, url := range cfg.Nodes {
		mem.Nodes[name] = url
	}
	r := &Router{
		cfg:     cfg,
		mem:     mem,
		ring:    mem.Ring(cfg.VNodes),
		members: cluster.NewMembers(cfg.Nodes, &http.Client{Timeout: 2 * time.Second}),
		client:  client,
		jobs:    make(map[string]*routedJob),
		m: routerMetrics{
			jobs:       cfg.Metrics.Counter("router_jobs_total"),
			spills:     cfg.Metrics.Counter("router_spills_total"),
			migrations: cfg.Metrics.Counter("router_migrations_total"),
			lost:       cfg.Metrics.Counter("router_jobs_lost_total"),
			relayed:    cfg.Metrics.Counter("router_events_relayed_total"),
			rejected:   cfg.Metrics.Counter("router_rejects_total"),
			reloads:    cfg.Metrics.Counter("router_membership_reloads_total"),
			epoch:      cfg.Metrics.Gauge("router_membership_epoch"),
		},
	}
	r.members.SetDetector(cfg.Detector)
	r.members.Instrument(cfg.Metrics)
	r.baseCtx, r.baseCancel = context.WithCancel(context.Background())
	r.members.Start(cfg.ProbeInterval)
	r.wg.Add(1)
	go r.syncMembership()
	return r, nil
}

// ringNow returns the current ring (immutable once built).
func (r *Router) ringNow() *cluster.Ring {
	r.memMu.Lock()
	defer r.memMu.Unlock()
	return r.ring
}

// Membership returns the router's current membership (a deep copy).
func (r *Router) Membership() cluster.Membership {
	r.memMu.Lock()
	defer r.memMu.Unlock()
	return r.mem.Clone()
}

// AdoptMembership installs mem if it is newer than the current set:
// the ring is rebuilt and the health table follows (joined nodes start
// unknown — immediately routable — and departed nodes are dropped).
// Reports whether a swap happened. Safe from any goroutine.
func (r *Router) AdoptMembership(mem cluster.Membership) bool {
	r.memMu.Lock()
	if !mem.Newer(r.mem) {
		r.memMu.Unlock()
		return false
	}
	r.mem = mem.Clone()
	r.ring = r.mem.Ring(r.cfg.VNodes)
	r.memMu.Unlock()
	r.members.SetNodes(mem.Nodes)
	r.m.reloads.Inc()
	r.m.epoch.Set(float64(mem.Epoch))
	return true
}

// syncMembership is the anti-entropy loop: poll each member's GET
// /cluster, adopt any newer epoch found there, and push the router's
// membership back to members reporting an older epoch — so a node that
// missed a fan-out (it was down during a join) converges without gossip.
func (r *Router) syncMembership() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-r.baseCtx.Done():
			return
		case <-t.C:
		}
		cur := r.Membership()
		var stale []string // base URLs holding an older epoch
		for _, name := range r.members.Names() {
			url := r.members.URL(name)
			if url == "" || r.members.State(name) == cluster.StateDown {
				continue
			}
			mem, ok := r.fetchNodeMembership(url)
			if !ok {
				continue
			}
			if mem.Newer(cur) {
				if r.AdoptMembership(mem) {
					cur = r.Membership()
				}
			} else if cur.Newer(mem) {
				stale = append(stale, url)
			}
		}
		for _, url := range stale {
			r.pushMembership(url, cur)
		}
	}
}

// fetchNodeMembership reads one node's membership view from GET /cluster.
func (r *Router) fetchNodeMembership(base string) (cluster.Membership, bool) {
	req, err := http.NewRequestWithContext(r.baseCtx, http.MethodGet, base+"/cluster", nil)
	if err != nil {
		return cluster.Membership{}, false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return cluster.Membership{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return cluster.Membership{}, false
	}
	var status struct {
		Epoch int64             `json:"epoch"`
		Nodes map[string]string `json:"nodes"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&status) != nil {
		return cluster.Membership{}, false
	}
	if len(status.Nodes) == 0 {
		return cluster.Membership{}, false
	}
	return cluster.Membership{Epoch: status.Epoch, Nodes: status.Nodes}, true
}

// pushMembership best-effort repairs one stale node.
func (r *Router) pushMembership(base string, mem cluster.Membership) {
	body, err := json.Marshal(cluster.MembershipUpdate{From: "router", Membership: mem})
	if err != nil {
		return
	}
	req, err := http.NewRequestWithContext(r.baseCtx, http.MethodPost, base+"/v1/peer/membership", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// Shutdown stops the router: probing ends, follower goroutines unwind.
// Jobs already on nodes keep running there — the router is stateless
// about execution; a restarted router simply no longer tracks them.
func (r *Router) Shutdown(ctx context.Context) error {
	r.baseCancel()
	r.members.Stop()
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// submitError maps a routing failure onto an HTTP status.
type submitError struct {
	status int
	msg    string
}

func (e *submitError) Error() string { return e.msg }

// Submit places a job: preferred nodes in ring order, bounded-load and
// health filtered, spilling on saturation. Returns the routed job.
func (r *Router) Submit(js service.JobSpec) (*routedJob, error) {
	key, err := service.PlacementKeyFor(js)
	if err != nil {
		r.m.rejected.Inc()
		return nil, &submitError{status: http.StatusBadRequest, msg: err.Error()}
	}
	// Checkpoints must stream to the router for crash migration to have
	// anything to move; jobs without checkpointing migrate from scratch
	// (determinism still makes the rerun bit-identical).
	if js.CheckpointEvery > 0 {
		js.ExportCheckpoints = true
	}
	job := &routedJob{spec: js, key: key, created: time.Now()}

	node, view, serr := r.place(job, "")
	if serr != nil {
		r.m.rejected.Inc()
		return nil, serr
	}
	r.track(job)
	r.m.jobs.Inc()

	job.mu.Lock()
	job.node = node
	job.nodeJobID = view.ID
	job.trace = view.TraceID
	// The routed job turns terminal only when the node's "end" event is
	// relayed (see append). A node view that is terminal already, as on a
	// warm cache hit, would otherwise show stream readers a finished job
	// with no events, and they would return an empty stream.
	job.state = view.State
	if job.state.Terminal() {
		job.state = service.StateRunning
	}
	job.mu.Unlock()

	r.wg.Add(1)
	go r.follow(job)
	return job, nil
}

// place POSTs the job's spec to the best available node, in preference
// order: ring order filtered by health, bounded load applied proactively,
// 429/503/transport failures spilling to the next candidate reactively.
// skip excludes a node (the one the job just died on). Detector-down
// nodes are skipped outright — never contacted, never counted toward the
// bounded-load baseline — so a dead node cannot eat a connection timeout
// per job or distort the balance target; a connection refused on a
// still-routable node is reported to the detector as failure evidence
// rather than an instant hard down (one refused connection must not shed
// a node a probe would vouch for).
func (r *Router) place(job *routedJob, skip string) (string, *service.View, *submitError) {
	ring := r.ringNow()
	prefer := ring.Prefer(job.key, ring.Len())
	candidates := prefer[:0:0]
	for _, name := range prefer {
		if name == skip || !r.members.State(name).Usable() {
			continue
		}
		candidates = append(candidates, name)
	}
	if len(candidates) == 0 {
		// Health says nobody is usable. Draining nodes may still be finishing
		// their drain window and the poller may lag a recovery, so trust the
		// wire over the poller for them — but detector-down nodes stay
		// excluded: down is the one verdict the router must honor outright.
		for _, name := range prefer {
			if name != skip && r.members.State(name) != cluster.StateDown {
				candidates = append(candidates, name)
			}
		}
	}
	// Bounded load: demote overloaded candidates behind the rest without
	// dropping them — order stays preference-stable within each class.
	// Suspect nodes (missed probes, flap-damped) are demoted the same way:
	// still routable, but only after the clean candidates.
	mean := r.members.MeanOutstanding()
	limit := int64(r.cfg.BoundedLoadFactor * (mean + 1))
	rank := func(name string) int {
		n := 0
		if r.members.Outstanding(name) > limit {
			n += 2
		}
		if r.members.State(name) == cluster.StateSuspect {
			n++
		}
		return n
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		return rank(candidates[i]) < rank(candidates[j])
	})

	body, err := json.Marshal(job.spec)
	if err != nil {
		return "", nil, &submitError{status: http.StatusBadRequest, msg: err.Error()}
	}
	var lastMsg string
	lastStatus := http.StatusServiceUnavailable
	for i, name := range candidates {
		if i > 0 {
			r.m.spills.Inc()
		}
		resp, err := r.client.Post(r.members.URL(name)+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			r.members.ReportFailure(name, err)
			lastMsg = err.Error()
			continue
		}
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted:
			var view service.View
			if err := json.Unmarshal(payload, &view); err != nil {
				lastMsg = "bad node response: " + err.Error()
				continue
			}
			r.members.AddOutstanding(name, 1)
			return name, &view, nil
		case resp.StatusCode == http.StatusTooManyRequests,
			resp.StatusCode == http.StatusServiceUnavailable:
			lastStatus, lastMsg = resp.StatusCode, string(bytes.TrimSpace(payload))
			continue // saturated or shedding: spill
		default:
			// A 400 is the spec's fault on every node — fail fast.
			return "", nil, &submitError{status: resp.StatusCode, msg: string(bytes.TrimSpace(payload))}
		}
	}
	if lastMsg == "" {
		lastMsg = "router: no node accepted the job"
	}
	return "", nil, &submitError{status: lastStatus, msg: lastMsg}
}

// append adds one relayed event to the job's stream with a continuous
// router-scope Seq and wakes stream readers. A "queued", "start" or "end"
// event also records the job's state, under the same lock, so no reader
// sees the terminal state before the "end" event. It reports whether the
// event turned a live job terminal.
func (j *routedJob) append(e service.Event) (turned bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch e.Kind {
	case "queued":
		j.state = service.StateQueued
	case "start":
		j.state = service.StateRunning
	case "end":
		turned = !j.state.Terminal() && e.State.Terminal()
		j.state = e.State
		j.errMsg = e.Err
	}
	j.log.Append(&e) // its checkpoint, if any, was decoded from JSON, so it encodes
	return turned
}

// appendRound relays a node line that is a "round" event without decoding
// it (see service.EventLog.Relay), counting it as consumed from the node.
// It reports false when the line must be decoded instead.
func (j *routedJob) appendRound(line []byte, node string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.log.Relay(line, node) {
		return false
	}
	j.nodeSeen++
	return true
}

// eventsSince is service.Job.EventsSince for the relayed stream.
func (j *routedJob) eventsSince(seq int) ([]byte, int, <-chan struct{}, service.State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	lines, n, more := j.log.Since(seq)
	return lines, n, more, j.state
}

// view synthesizes the router-scope job view from the local mirror.
func (j *routedJob) view() service.View {
	j.mu.Lock()
	defer j.mu.Unlock()
	return service.View{
		ID:       j.id,
		TraceID:  j.trace,
		State:    j.state,
		Spec:     j.spec,
		Created:  j.created.UTC().Format(time.RFC3339Nano),
		Events:   j.log.Len(),
		Error:    j.errMsg,
		Result:   j.result,
		Node:     j.node,
		Migrated: j.migrated,
	}
}

// finalize records a terminal state reached outside a node's own "end"
// event (migration budget exhausted, no surviving node).
func (r *Router) finalize(job *routedJob, state service.State, msg string) {
	job.mu.Lock()
	trace := job.trace
	job.mu.Unlock()
	r.end(job, service.Event{Kind: "end", State: state, Err: msg, Trace: trace})
}

// end relays a job's "end" event and counts the job as terminal the first
// time one turns it terminal.
func (r *Router) end(job *routedJob, e service.Event) {
	if job.append(e) {
		r.terminal.Add(1)
	}
}

// track registers a placed job under a fresh router ID and enforces
// Config.Retention.
func (r *Router) track(job *routedJob) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	job.id = fmt.Sprintf("r%06d", r.nextID)
	r.jobs[job.id] = job
	r.order = append(r.order, job)
	r.evictLocked()
}

// evictLocked enforces Config.Retention over terminal routed jobs. It
// returns at once while the terminal count is within Retention; otherwise
// it drops the oldest terminal jobs from the front of the order, keeping
// every live job whatever its age.
func (r *Router) evictLocked() {
	excess := int(r.terminal.Load()) - r.cfg.Retention
	if excess <= 0 {
		return
	}
	kept, i := 0, 0
	for ; i < len(r.order) && excess > 0; i++ {
		j := r.order[i]
		if j.terminal() {
			delete(r.jobs, j.id)
			r.terminal.Add(-1)
			excess--
			continue
		}
		r.order[kept] = j
		kept++
	}
	n := kept + copy(r.order[kept:], r.order[i:])
	clear(r.order[n:])
	r.order = r.order[:n]
}

func (j *routedJob) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// Cancel forwards a cancellation to the job's current node.
func (r *Router) Cancel(id string) (*routedJob, error) {
	r.mu.Lock()
	job, ok := r.jobs[id]
	r.mu.Unlock()
	if !ok {
		return nil, service.ErrNotFound
	}
	job.mu.Lock()
	job.cancelled = true
	node, nodeID := job.node, job.nodeJobID
	job.mu.Unlock()
	req, err := http.NewRequestWithContext(r.baseCtx, http.MethodDelete,
		r.members.URL(node)+"/v1/jobs/"+nodeID, nil)
	if err == nil {
		if resp, derr := r.client.Do(req); derr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	return job, nil
}

// follow relays the job's event stream from its current node until the job
// is terminal, migrating it when the node drains or dies. One goroutine
// per routed job.
func (r *Router) follow(job *routedJob) {
	defer r.wg.Done()
	streamFailures := 0
	for {
		terminal, err := r.streamOnce(job)
		job.mu.Lock()
		node := job.node
		job.mu.Unlock()
		if terminal {
			r.members.AddOutstanding(node, -1)
			return
		}
		if r.baseCtx.Err() != nil {
			return
		}
		migrate := false
		if err != nil {
			// Stream broke without a terminal event: transient hiccup or a
			// dead node? Ask the node directly — the poller may lag.
			if r.probeAlive(node) {
				streamFailures++
				if streamFailures <= 3 {
					time.Sleep(100 * time.Millisecond)
					continue // reattach via ?from=, no events lost
				}
			}
			r.members.MarkDown(node, err)
			migrate = true
		} else {
			// Terminal "cancelled" on a draining/dead node with no cancel
			// from our side: the drain took the job; move it.
			migrate = true
		}
		if !migrate {
			return
		}
		streamFailures = 0
		r.members.AddOutstanding(node, -1)
		if !r.migrate(job, node) {
			return
		}
	}
}

// streamOnce attaches to the current node's event stream (resuming at the
// last consumed index) and relays events until the stream ends. Returns
// terminal=true when the job finished for good: done, failed, or cancelled
// by an actual cancel request. A false return with err=nil means the job
// was cancelled out from under us by a drain — the caller migrates it.
func (r *Router) streamOnce(job *routedJob) (terminal bool, err error) {
	job.mu.Lock()
	node, nodeID, from := job.node, job.nodeJobID, job.nodeSeen
	job.mu.Unlock()
	url := fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", r.members.URL(node), nodeID, from)
	req, err := http.NewRequestWithContext(r.baseCtx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// The node is up but no longer knows the job (restarted): treat as
		// a dead stream so the job migrates with its checkpoint.
		return false, fmt.Errorf("router: node %s: events status %d", node, resp.StatusCode)
	}
	// Round lines are ~100 bytes; a checkpoint line or a flight dump may
	// grow the buffer up to the cap.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		// Nearly every line is a round, which the router only renumbers and
		// stamps with the node; every other event is decoded.
		if job.appendRound(line, node) {
			r.m.relayed.Inc()
			continue
		}
		var e service.Event
		if err := json.Unmarshal(line, &e); err != nil {
			return false, fmt.Errorf("router: bad event from %s: %w", node, err)
		}
		job.mu.Lock()
		job.nodeSeen++
		if e.Trace != "" && job.trace == "" {
			job.trace = e.Trace
		}
		if e.Kind == "checkpoint" && e.Checkpoint != nil {
			// Router plumbing, not client payload: keep the snapshot for
			// migration and strip the event from the relayed stream.
			job.ckpt = e.Checkpoint
			job.mu.Unlock()
			continue
		}
		cancelled := job.cancelled
		job.mu.Unlock()

		if e.Kind == "end" {
			if e.State == service.StateCancelled && !cancelled {
				// Drain or forced shutdown took the job — migrate rather
				// than surface a cancellation nobody asked for. The "end"
				// event is swallowed; the migrated stream continues.
				return false, nil
			}
			r.fetchResult(job, node, nodeID)
			e.Node = node
			r.m.relayed.Inc()
			r.end(job, e)
			return true, nil
		}
		e.Node = node
		r.m.relayed.Inc()
		job.append(e)
	}
	if serr := sc.Err(); serr != nil {
		return false, serr
	}
	return false, fmt.Errorf("router: node %s: event stream ended without a terminal event", node)
}

// fetchResult pulls the terminal job view from the node so the router can
// serve the result after the node is gone.
func (r *Router) fetchResult(job *routedJob, node, nodeID string) {
	resp, err := r.client.Get(r.members.URL(node) + "/v1/jobs/" + nodeID)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return
	}
	var v service.View
	if json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&v) != nil {
		return
	}
	job.mu.Lock()
	job.result = v.Result
	job.mu.Unlock()
}

// probeAlive asks the node's /healthz directly (200 or 503-draining both
// mean the process is alive; only transport failure means dead).
func (r *Router) probeAlive(node string) bool {
	client := &http.Client{Timeout: time.Second}
	resp, err := client.Get(r.members.URL(node) + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return true
}

// migrate moves the job to a surviving node: resubmit the spec with the
// latest checkpoint (bit-identical resume) under the original trace ID,
// emit a synthetic "migrated" event, and let the follower reattach.
// Reports whether the job is live on a new node.
func (r *Router) migrate(job *routedJob, deadNode string) bool {
	job.mu.Lock()
	job.migrated++
	migrations := job.migrated
	js := job.spec
	js.TraceID = job.trace
	js.Resume = job.ckpt
	ckpt := job.ckpt
	trace := job.trace
	job.mu.Unlock()
	if migrations > r.cfg.MaxMigrations {
		r.m.lost.Inc()
		r.finalize(job, service.StateFailed,
			fmt.Sprintf("router: job exceeded %d migrations", r.cfg.MaxMigrations))
		return false
	}
	if len(js.Batch) > 0 {
		js.Resume = nil // batch jobs hold no resumable sub-state; rerun
	}

	// The surviving nodes may briefly all report down (poller lag) or be
	// saturated absorbing the failover; retry placement for a while before
	// declaring the job lost.
	reJob := &routedJob{spec: js, key: job.key}
	deadline := time.Now().Add(15 * time.Second)
	for {
		node, view, serr := r.place(reJob, deadNode)
		if serr == nil {
			r.m.migrations.Inc()
			job.append(service.Event{
				Kind: "migrated", Node: node, Trace: trace,
				Checkpoint: ckpt, Resumed: ckpt != nil,
			})
			job.mu.Lock()
			job.node = node
			job.nodeJobID = view.ID
			job.nodeSeen = 0
			job.state = service.StateQueued
			job.mu.Unlock()
			return true
		}
		if time.Now().After(deadline) || r.baseCtx.Err() != nil {
			r.m.lost.Inc()
			r.finalize(job, service.StateFailed, "router: migration failed: "+serr.msg)
			return false
		}
		select {
		case <-time.After(200 * time.Millisecond):
		case <-r.baseCtx.Done():
		}
	}
}
