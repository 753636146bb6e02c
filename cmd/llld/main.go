// Command llld is the LLL solver daemon: it serves the internal/service
// job subsystem over HTTP — bounded-queue admission, concurrent execution
// on the engine worker pool, per-round NDJSON event streams, cancellation —
// together with the observability endpoints (/metrics Prometheus text,
// /debug/vars JSON, /debug/pprof) and the SLO burn-rate status (/slo, JSON
// or ?format=prom with trace-exemplars; fast burn sheds deadline'd jobs
// whose predicted p99 cannot meet their deadline).
//
// Usage:
//
//	llld -addr :8080 -queue 64 -inflight 4
//
// Submit, watch and cancel jobs:
//
//	curl -s -X POST localhost:8080/v1/jobs -d '{"family":"sinkless","n":4096,"degree":3,"algorithm":"dist"}'
//	curl -s localhost:8080/v1/jobs/j000001/events      # NDJSON, one line per round
//	curl -s -X DELETE localhost:8080/v1/jobs/j000001   # cancel
//
// Batch many instances into one job (packed engine runs + result cache):
//
//	curl -s -X POST localhost:8080/v1/jobs/batch \
//	  -d '{"template":{"family":"sinkless","n":256,"algorithm":"mtpar"},"count":50,"vary_seed":true,"cache":true}'
//
// SIGINT/SIGTERM starts a graceful drain: admission stops (healthz turns
// 503, new submits get 503), queued jobs are cancelled, running jobs get
// -drain-timeout to finish before their contexts are cancelled.
//
// Run as a cluster member (usually behind cmd/lllrouter) by naming itself
// and its peers; nodes then fill cache misses from the key's home node and
// serve their own cache to peers over /v1/peer/cache/:
//
//	llld -addr :8081 -cluster-self a -cluster-nodes a=http://127.0.0.1:8081,b=http://127.0.0.1:8082
//
// Join a running cluster at runtime — no restarts anywhere — by announcing
// to any member (node or router); the previous owners of the joiner's ring
// slice stream their matching warm-cache entries over:
//
//	llld -addr :8084 -cluster-self d -cluster-url http://127.0.0.1:8084 \
//	     -cluster-join http://127.0.0.1:8081
//
// SIGTERM on a cluster member runs the planned-leave protocol before the
// drain: cached entries stream to their next owners (reverse warm handoff)
// and the membership without this node fans out. While alive, the k
// hottest owned cache entries (-cluster-hot-replicas) are write-through
// replicated to the ring successor so even a SIGKILL does not cold-start
// them.
//
// Multi-tenant serving: -tenants takes a tenancy policy (inline JSON or a
// @file path) defining named tenants with weights, priority classes,
// token-bucket rates and in-flight/queued quotas. Submissions label
// themselves via the spec's "tenant" field or the X-Tenant header; the
// scheduler then dispatches weighted-fair across tenants, quota and rate
// rejections answer 429 with a per-tenant Retry-After, and GET /v1/tenants
// reports the live per-tenant accounting:
//
//	llld -tenants '{"tenants":[{"name":"gold","weight":4},{"name":"free","weight":1,"rate":2,"burst":4}]}'
//	llld -tenants @tenants.json -autotune
//
// -autotune turns on the AIMD concurrency controller: the effective
// in-flight limit is halved on SLO fast burn or a p99 over the thresholds
// and creeps up by one while a backlog waits, within
// [-autotune-min, -autotune-max], re-evaluated every -autotune-interval.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/slo"
	"repro/internal/tenant"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "llld:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	queueCap := flag.Int("queue", 64, "admission queue capacity (full queue answers 429)")
	inflight := flag.Int("inflight", 0, "max concurrently running jobs (0: GOMAXPROCS/2)")
	jobWorkers := flag.Int("job-workers", 0, "engine worker cap per job (0: GOMAXPROCS); a LOCAL run whose rounds are too small to share runs inline whatever the cap")
	retention := flag.Int("retention", 256, "finished jobs kept in the store")
	cacheSize := flag.Int("cache-size", 256, "canonical result-cache entries (negative: disable caching)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for running jobs")
	traceFile := flag.String("trace", "", "append JSONL runtime trace events to this file")
	retries := flag.Int("retries", 0, "default retry budget for jobs that do not set max_retries")
	retryBackoff := flag.Duration("retry-backoff", 0, "base retry backoff (0: 100ms)")
	retryBackoffMax := flag.Duration("retry-backoff-max", 0, "retry backoff cap (0: 5s)")
	injectPanic := flag.Float64("inject-panic", 0, "fault injection: per-shard-per-round panic probability [0,1)")
	injectDrop := flag.Float64("inject-drop", 0, "fault injection: per-message drop probability [0,1)")
	injectCrash := flag.Float64("inject-crash", 0, "fault injection: per-node-per-round crash-stop probability [0,1)")
	injectSeed := flag.Uint64("inject-seed", 0, "fault injection seed (0: derive from each job's seed)")
	sloOn := flag.Bool("slo", true, "evaluate SLO burn rates and serve /slo (fast burn sheds deadline'd jobs)")
	sloRunThreshold := flag.Duration("slo-run-threshold", 2*time.Second, "run-latency SLO threshold")
	sloQueueThreshold := flag.Duration("slo-queue-threshold", 500*time.Millisecond, "queue-wait SLO threshold")
	sloTarget := flag.Float64("slo-target", 0.99, "SLO target fraction of good events, in (0,1)")
	sloShort := flag.Duration("slo-window-short", 10*time.Second, "short burn-rate window")
	sloLong := flag.Duration("slo-window-long", time.Minute, "long burn-rate window")
	sloBurn := flag.Float64("slo-burn-factor", 2, "burn-rate factor that trips fast burn in both windows")
	clusterSelf := flag.String("cluster-self", "", "this node's name in the cluster (empty: standalone)")
	clusterNodes := flag.String("cluster-nodes", "", "boot membership as name=url,name=url (requires -cluster-self)")
	clusterURL := flag.String("cluster-url", "", "this node's advertised base URL (alternative to listing self in -cluster-nodes)")
	clusterJoin := flag.String("cluster-join", "", "announce a runtime join to this seed member URL (node or router) after serving starts")
	clusterFillWait := flag.Int("cluster-fill-wait-ms", 0, "peer-fill wait for an in-flight solve on the home node (0: default)")
	clusterHot := flag.Int("cluster-hot-replicas", 0, "replicate the k hottest owned cache entries to the ring successor (0: default 16, negative: off)")
	clusterReplEvery := flag.Duration("cluster-replicate-interval", 0, "hot-entry replication cadence (0: default 2s)")
	clusterHandoffChunk := flag.Int("cluster-handoff-chunk", 0, "warm-handoff entries per chunk (0: default 64)")
	clusterHandoffRate := flag.Int("cluster-handoff-rate", 0, "warm-handoff rate bound in entries/second (0: default 4096)")
	tenants := flag.String("tenants", "", "tenancy policy: inline JSON or @file (empty: single default tenant, no quotas)")
	autotune := flag.Bool("autotune", false, "AIMD auto-tuning of the in-flight limit from latency histograms")
	autotuneMin := flag.Int("autotune-min", 1, "auto-tuner: in-flight limit floor")
	autotuneMax := flag.Int("autotune-max", 0, "auto-tuner: in-flight limit ceiling (0: 2x -inflight)")
	autotuneInterval := flag.Duration("autotune-interval", 2*time.Second, "auto-tuner: control-loop evaluation cadence")
	flag.Parse()

	plan := fault.Plan{Seed: *injectSeed, PanicRate: *injectPanic, DropRate: *injectDrop, CrashRate: *injectCrash}
	if err := plan.Validate(); err != nil {
		return err
	}
	if *retries < 0 || *retries > 16 {
		return fmt.Errorf("-retries %d out of range [0, 16]", *retries)
	}
	reg := obs.NewRegistry()
	cfg := service.Config{
		QueueCap:          *queueCap,
		MaxInFlight:       *inflight,
		MaxWorkersPerJob:  *jobWorkers,
		Retention:         *retention,
		CacheSize:         *cacheSize,
		Metrics:           reg,
		Fault:             plan,
		DefaultMaxRetries: *retries,
		RetryBackoff:      *retryBackoff,
		RetryBackoffMax:   *retryBackoffMax,
	}
	if *clusterSelf == "" && (*clusterNodes != "" || *clusterJoin != "" || *clusterURL != "") {
		return fmt.Errorf("-cluster-nodes/-cluster-url/-cluster-join require -cluster-self")
	}
	if *clusterSelf != "" {
		nodes := map[string]string{}
		if *clusterNodes != "" {
			var err error
			if nodes, err = parseNodes(*clusterNodes); err != nil {
				return err
			}
		}
		if *clusterURL != "" {
			nodes[*clusterSelf] = strings.TrimSuffix(*clusterURL, "/")
		}
		if _, ok := nodes[*clusterSelf]; !ok {
			return fmt.Errorf("-cluster-self %q needs its URL: list it in -cluster-nodes or give -cluster-url", *clusterSelf)
		}
		if *cacheSize < 0 {
			return fmt.Errorf("cluster membership requires the result cache (-cache-size >= 0)")
		}
		cfg.Cluster = &service.ClusterConfig{
			Self:              *clusterSelf,
			Nodes:             nodes,
			FillWaitMS:        *clusterFillWait,
			HotReplicas:       *clusterHot,
			ReplicateInterval: *clusterReplEvery,
			HandoffChunk:      *clusterHandoffChunk,
			HandoffRate:       *clusterHandoffRate,
		}
		log.Printf("llld: cluster member %q of %d boot nodes, peer cache fill live", *clusterSelf, len(nodes))
	}
	if *sloOn {
		cfg.SLO = slo.NewEngine(slo.Config{
			Objectives: []slo.Objective{
				{Name: service.SLORunLatency, Kind: slo.Latency, Target: *sloTarget, Threshold: sloRunThreshold.Seconds()},
				{Name: service.SLOQueueWait, Kind: slo.Latency, Target: *sloTarget, Threshold: sloQueueThreshold.Seconds()},
				{Name: service.SLOErrorRate, Kind: slo.Ratio, Target: *sloTarget},
			},
			ShortWindow: *sloShort,
			LongWindow:  *sloLong,
			BurnFactor:  *sloBurn,
		})
		log.Printf("llld: SLO engine live: run<%v queue<%v target=%g windows=%v/%v burn=%g",
			*sloRunThreshold, *sloQueueThreshold, *sloTarget, *sloShort, *sloLong, *sloBurn)
	}
	if *tenants != "" {
		data := []byte(*tenants)
		if strings.HasPrefix(*tenants, "@") {
			var err error
			if data, err = os.ReadFile(strings.TrimPrefix(*tenants, "@")); err != nil {
				return fmt.Errorf("-tenants: %w", err)
			}
		}
		tc, err := tenant.ParseConfig(data)
		if err != nil {
			return fmt.Errorf("-tenants: %w", err)
		}
		cfg.Tenancy = tc
		names := make([]string, 0, len(tc.Tenants))
		for _, sp := range tc.Tenants {
			names = append(names, fmt.Sprintf("%s(w%d)", sp.Name, sp.Weight))
		}
		log.Printf("llld: multi-tenant serving live: %s (unknown tenants %s)",
			strings.Join(names, " "), map[bool]string{true: "fold into default", false: "rejected"}[tc.AllowUnknown])
	}
	if *autotune {
		cfg.AutoTune = &service.AutoTuneConfig{
			Min:            *autotuneMin,
			Max:            *autotuneMax,
			Interval:       *autotuneInterval,
			RunThreshold:   *sloRunThreshold,
			QueueThreshold: *sloQueueThreshold,
		}
		log.Printf("llld: AIMD in-flight auto-tuner live: [%d, %d] every %v", *autotuneMin, *autotuneMax, *autotuneInterval)
	}
	if plan.Enabled() {
		log.Printf("llld: fault injection live: panic=%g drop=%g crash=%g seed=%d", plan.PanicRate, plan.DropRate, plan.CrashRate, plan.Seed)
	}
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		rec := obs.NewRecorder(f)
		defer rec.Flush()
		cfg.Trace = rec
	}

	svc := service.New(cfg)
	// Hardened server timeouts: slow or stalled clients must not pin
	// connections forever. No WriteTimeout — the NDJSON event streams are
	// legitimately long-lived; per-request write deadlines would sever them.
	server := &http.Server{
		Addr:              *addr,
		Handler:           service.NewHandler(svc, reg),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("llld: serving on %s (queue=%d)", *addr, *queueCap)
		if err := server.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	if *clusterJoin != "" {
		// Announce only once our own listener answers: the seed's fan-out
		// makes previous owners stream warm-cache handoffs at us
		// immediately, and chunks sent before we listen degrade to misses.
		go func() {
			joinCtx, joinCancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer joinCancel()
			waitSelfReady(joinCtx, cfg.Cluster.Nodes[*clusterSelf])
			if err := svc.AnnounceJoin(joinCtx, strings.TrimSuffix(*clusterJoin, "/")); err != nil {
				log.Printf("llld: join announce to %s failed (serving standalone until membership reaches us): %v", *clusterJoin, err)
				return
			}
			log.Printf("llld: joined cluster via %s", *clusterJoin)
		}()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		log.Printf("llld: %v received, draining (budget %v)", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if cfg.Cluster != nil {
		// Planned leave: reverse warm handoff, then the membership without
		// this node fans out — peers stop routing here with warm caches.
		// Runs inside the drain budget and never blocks the shutdown.
		svc.LeaveCluster(ctx)
		log.Printf("llld: left cluster (warm handoff pushed, membership fanned out)")
	}
	if err := svc.Shutdown(ctx); err != nil {
		log.Printf("llld: drain budget exceeded, running jobs cancelled: %v", err)
	} else {
		log.Printf("llld: all jobs drained")
	}
	// Stop the HTTP listener after the drain so job views and event
	// streams stay reachable while jobs wind down.
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer httpCancel()
	if err := server.Shutdown(httpCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	log.Printf("llld: bye")
	return <-errCh
}

// waitSelfReady polls this node's own advertised /healthz until it answers
// (any status: the listener is up) or the context expires — the gate before
// announcing a join, so handoff chunks are not fired at a closed port.
func waitSelfReady(ctx context.Context, selfURL string) {
	for ctx.Err() == nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, selfURL+"/healthz", nil)
		if err != nil {
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			return
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
		}
	}
}

// parseNodes parses "a=http://host:1,b=http://host:2" into a membership map.
func parseNodes(s string) (map[string]string, error) {
	nodes := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad node entry %q, want name=url", part)
		}
		if _, dup := nodes[name]; dup {
			return nil, fmt.Errorf("duplicate node name %q", name)
		}
		nodes[name] = strings.TrimSuffix(url, "/")
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("no nodes in %q", s)
	}
	return nodes, nil
}
