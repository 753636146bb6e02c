// Package service is the long-running job subsystem of the repository: a
// bounded, weighted-fair queue with multi-tenant admission control in
// front of a scheduler that executes LLL jobs — deterministic fixers,
// Moser-Tardos resamplers, LOCAL-model runs — on the sharded engine worker
// pool, with per-job cancellation, NDJSON event streams and a retained job
// store. cmd/llld exposes it over HTTP.
//
// Concurrency model: admission (Submit) is non-blocking — a full queue
// rejects immediately with ErrQueueFull (HTTP 429) instead of building an
// unbounded backlog. With Config.Tenancy set, admission first resolves the
// job's tenant and runs its gates (token-bucket rate limit, in-flight
// quota, deadline-aware shed against the tenant's live p99 — see
// tenancy.go); the queue then interleaves tenants by stride scheduling
// over per-tenant sub-queues (weighted fair within a priority class,
// strict across classes). Without tenancy every job rides a single default
// tenant and the queue degenerates to FIFO. MaxInFlight scheduler
// goroutines pop the queue and run one job each; the job's inner
// parallelism rides the engine pool, so MaxInFlight × per-job workers is
// the compute envelope. With Config.AutoTune set, an AIMD controller
// retunes the effective in-flight limit from the latency histograms.
// Cancellation uses the context plumbed through local.Run and the
// resamplers: a running job stops within one round and keeps its partial
// result. Shutdown stops admission, cancels still-queued jobs, and drains
// the running ones.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/slo"
	"repro/internal/tenant"
)

// Sentinel errors surfaced by Submit / Get / Cancel; the HTTP layer maps
// them to status codes.
var (
	// ErrQueueFull: admission control rejected the job (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining: the service is shutting down (HTTP 503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrNotFound: no job with that id (HTTP 404).
	ErrNotFound = errors.New("service: no such job")
	// ErrShed: admission shed the job because the SLO engine is fast-burning
	// and the predicted p99 run latency exceeds the job's deadline — running
	// it would burn CPU on a job that cannot meet its deadline while the
	// error budget is already draining (HTTP 503).
	ErrShed = errors.New("service: admission shed: predicted p99 latency exceeds deadline under SLO fast burn")
)

// Objective names the Service feeds when Config.SLO is set; declare
// objectives under these names to activate the corresponding signal.
const (
	// SLORunLatency observes each attempt's run duration (seconds).
	SLORunLatency = "run_latency"
	// SLOQueueWait observes each job's admission-to-dispatch wait (seconds).
	SLOQueueWait = "queue_wait"
	// SLOErrorRate observes each job's terminal outcome (failed = bad).
	SLOErrorRate = "error_rate"
)

// Runner executes one job attempt under ctx, streaming events through emit
// and returning the (possibly partial) summary. The default is RunSpec;
// tests inject stubs. A Runner may panic: the scheduler recovers the panic
// into a failed (or retried) job and the daemon survives.
type Runner func(ctx context.Context, js JobSpec, att Attempt, emit func(Event)) (*Summary, error)

// Attempt is the retry context of one Runner invocation.
type Attempt struct {
	// Number is the 1-based attempt number; retries increment it.
	Number int
	// Checkpoint is the latest snapshot saved by an earlier attempt, nil on
	// a fresh start. A runner that understands it resumes instead of redoing
	// the work.
	Checkpoint *fault.Checkpoint
	// SaveCheckpoint stores a snapshot in the job record for the next
	// attempt. Never nil for scheduler-issued attempts; safe to call
	// concurrently with readers of the job.
	SaveCheckpoint func(*fault.Checkpoint)
}

// Config parameterizes a Service. The zero value is usable: every field
// has a default sized off GOMAXPROCS.
type Config struct {
	// QueueCap bounds the number of queued (admitted, not yet running)
	// jobs; a full queue rejects with ErrQueueFull. Default 64.
	QueueCap int
	// MaxInFlight is the number of scheduler goroutines — the global cap
	// on concurrently running jobs. Default max(1, GOMAXPROCS/2): each
	// job parallelizes internally on the engine pool, so running one job
	// per core would oversubscribe it.
	MaxInFlight int
	// MaxWorkersPerJob caps the engine workers a single job may claim
	// (JobSpec.Workers is clamped to it). Default GOMAXPROCS.
	MaxWorkersPerJob int
	// Retention is the number of terminal (done/failed/cancelled) jobs
	// kept in the store; older ones are evicted FIFO. Queued and running
	// jobs are always retained. Default 256.
	Retention int
	// CacheSize is the capacity (entries) of the canonical result cache
	// serving jobs with spec field "cache": true. Default 256; negative
	// disables caching entirely.
	CacheSize int
	// Metrics, when non-nil, receives the service_* metric families and is
	// passed through to the runtime layers of every job. Trace likewise.
	Metrics *obs.Registry
	Trace   *obs.Recorder
	// SLO, when non-nil, receives the service's objective signals (run
	// latency, queue wait, error rate — see the SLO* name constants) and
	// closes the first control loop: while any objective fast-burns,
	// admission sheds deadline-carrying jobs whose deadline is below the
	// predicted p99 run latency (ErrShed). Nil disables both at zero cost.
	SLO *slo.Engine
	// Runner overrides job execution (tests); nil means RunSpec.
	Runner Runner
	// Fault is a daemon-wide fault-injection plan merged into every job's
	// own plan (rates take the maximum). The zero Plan injects nothing.
	Fault fault.Plan
	// DefaultMaxRetries is the retry budget for jobs that leave
	// JobSpec.MaxRetries zero. Default 0: failures are terminal unless the
	// job or the daemon opts in.
	DefaultMaxRetries int
	// RetryBackoff / RetryBackoffMax shape the exponential, jittered delay
	// between attempts (see fault.Backoff); zero selects 100ms / 5s.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// Cluster joins this service to a multi-node llld cluster: the node
	// serves the peer cache/claim endpoints and, on a local cache miss for
	// a key another node owns, asks that home node before solving. Nil
	// (the default) runs standalone. Requires a result cache (CacheSize
	// not negative).
	Cluster *ClusterConfig
	// Tenancy declares the multi-tenant policy: per-tenant weights,
	// priority classes, rate limits and quotas (see tenant.ParseConfig).
	// Nil (the default) serves everything as one default tenant with no
	// limits — the pre-tenant behavior.
	Tenancy *tenant.Config
	// AutoTune enables the AIMD in-flight controller; nil keeps the limit
	// pinned at MaxInFlight.
	AutoTune *AutoTuneConfig
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0) / 2
		if c.MaxInFlight < 1 {
			c.MaxInFlight = 1
		}
	}
	if c.MaxWorkersPerJob <= 0 {
		c.MaxWorkersPerJob = runtime.GOMAXPROCS(0)
	}
	if c.Retention <= 0 {
		c.Retention = 256
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	return c
}

// Service is the job subsystem: admission control, scheduler, job store.
// Create with New, stop with Shutdown.
type Service struct {
	cfg    Config
	runner Runner

	baseCtx    context.Context // parent of every job's run context
	baseCancel context.CancelFunc

	queue *tenant.Queue[*Job]
	wg    sync.WaitGroup // scheduler goroutines

	// tenancy is the multi-tenant admission state (nil when Config.Tenancy
	// is nil); tuneStop/tuneWG drive the AIMD in-flight controller (see
	// tenancy.go).
	tenancy  *tenancy
	tuneStop chan struct{}
	tuneWG   sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job // submission order, for List and retention
	nextID   int64
	draining bool
	// retryTimers holds the pending re-admission timers of jobs waiting out
	// their backoff; Shutdown stops them so a drain never races a requeue.
	retryTimers map[string]*time.Timer
	// backoffRand jitters the retry delays (guarded by mu).
	backoffRand *prng.Rand

	// cache is the result cache keyed by cacheKey, a fold of the spec
	// (nil when Config.CacheSize < 0); flights collapses concurrent
	// identical cache-enabled jobs. runOpts is the RunOptions handed to
	// RunSpec for default and batch runs.
	cache   *resultCache
	flights *flightGroup
	runOpts RunOptions

	// peers is the cluster peer-cache layer (nil when standalone). tuning,
	// clusterStop and clusterWG drive the elasticity machinery — warm
	// handoffs and the hot-entry replicator (see handoff.go).
	peers       *peerLayer
	tuning      handoffTuning
	clusterStop chan struct{}
	clusterWG   sync.WaitGroup

	m svcMetrics
}

// svcMetrics are the service_* instruments; obs instruments are nil-safe,
// so a nil registry disables them at zero cost.
type svcMetrics struct {
	queueDepth  *obs.Gauge
	running     *obs.Gauge
	submitted   *obs.Counter
	rejects     *obs.Counter
	done        *obs.Counter
	failed      *obs.Counter
	cancelled   *obs.Counter
	events      *obs.Counter
	retries     *obs.Counter
	gaveup      *obs.Counter
	panics      *obs.Counter
	checkpoints *obs.Counter
	shed        *obs.Counter
	fastBurn    *obs.Gauge
	// inflightLimit tracks the queue's effective running limit — pinned at
	// MaxInFlight, or live when the AIMD auto-tuner drives it.
	inflightLimit *obs.Gauge
	queueSec      *obs.Histogram
	runSec        *obs.Histogram
}

func newSvcMetrics(reg *obs.Registry) svcMetrics {
	return svcMetrics{
		queueDepth:    reg.Gauge("service_queue_depth"),
		running:       reg.Gauge("service_jobs_running"),
		submitted:     reg.Counter("service_jobs_submitted_total"),
		rejects:       reg.Counter("service_admission_rejects_total"),
		done:          reg.Counter("service_jobs_done_total"),
		failed:        reg.Counter("service_jobs_failed_total"),
		cancelled:     reg.Counter("service_jobs_cancelled_total"),
		events:        reg.Counter("service_job_events_total"),
		retries:       reg.Counter("service_retries_total"),
		gaveup:        reg.Counter("service_gaveup_total"),
		panics:        reg.Counter("service_panics_total"),
		checkpoints:   reg.Counter("service_checkpoints_total"),
		shed:          reg.Counter("service_admission_shed_total"),
		fastBurn:      reg.Gauge("service_slo_fast_burn"),
		inflightLimit: reg.Gauge("service_inflight_limit"),
		queueSec:      reg.Histogram("service_job_queue_seconds", obs.DurationBuckets),
		runSec:        reg.Histogram("service_job_run_seconds", obs.DurationBuckets),
	}
}

// New starts a Service: its scheduler goroutines are running and Submit is
// accepting jobs as soon as it returns.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:         cfg,
		jobs:        make(map[string]*Job),
		queue:       tenant.NewQueue[*Job](cfg.QueueCap, cfg.Tenancy.Specs()),
		retryTimers: make(map[string]*time.Timer),
		backoffRand: prng.New(cfg.Fault.Seed ^ 0xb0ff),
		m:           newSvcMetrics(cfg.Metrics),
	}
	if cfg.Tenancy != nil {
		s.tenancy = newTenancy(cfg.Tenancy, cfg.Metrics)
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.runOpts = RunOptions{
		Metrics:    cfg.Metrics,
		Trace:      cfg.Trace,
		MaxWorkers: cfg.MaxWorkersPerJob,
		Fault:      cfg.Fault,
	}
	if cfg.CacheSize > 0 {
		s.cache = newResultCache(cfg.CacheSize, cfg.Metrics)
		s.flights = newFlightGroup(cfg.Metrics)
	}
	if cfg.Cluster != nil {
		if err := cfg.Cluster.validate(); err != nil {
			panic(err) // misconfiguration, caught at daemon start
		}
		if s.cache == nil {
			panic("service: Cluster requires the result cache (CacheSize >= 0)")
		}
		s.peers = newPeerLayer(cfg.Cluster, cfg.Metrics)
		s.tuning = cfg.Cluster.tuning()
		s.clusterStop = make(chan struct{})
		s.startCluster()
	}
	base := cfg.Runner
	if base == nil {
		base = func(ctx context.Context, js JobSpec, att Attempt, emit func(Event)) (*Summary, error) {
			return RunSpec(ctx, js, att, emit, s.runOpts)
		}
	}
	// The dispatch wrapper routes batch jobs to the packed batch runner
	// and cache-enabled jobs through the result cache + single-flight
	// layer; everything else hits the configured runner directly.
	s.runner = func(ctx context.Context, js JobSpec, att Attempt, emit func(Event)) (*Summary, error) {
		if len(js.Batch) > 0 {
			return s.runBatch(ctx, js, att, emit)
		}
		if s.cacheable(js) {
			return s.runCached(ctx, js, att, emit, base)
		}
		return base(ctx, js, att, emit)
	}
	// Worker pool vs effective limit: without auto-tuning the two coincide
	// and the running gate is transparent (every worker always gets a
	// slot). With auto-tuning, Max workers are parked behind the gate and
	// the AIMD controller moves the limit between Min and Max.
	workers, limit := cfg.MaxInFlight, cfg.MaxInFlight
	if cfg.AutoTune != nil {
		at := cfg.AutoTune.withDefaults(cfg.MaxInFlight)
		workers = at.Max
		if limit < at.Min {
			limit = at.Min
		}
		if limit > at.Max {
			limit = at.Max
		}
		s.tuneStop = make(chan struct{})
		s.tuneWG.Add(1)
		go s.autotune(at)
	}
	s.queue.SetRunningLimit(limit)
	s.m.inflightLimit.Set(float64(limit))
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.scheduler()
	}
	return s
}

// Submit validates the spec and admits it into the queue, returning the
// queued Job. It never blocks: a full queue returns ErrQueueFull, a
// draining service ErrDraining, a bad spec the validation error. With
// tenancy on, the tenant's own gates run first — deadline shed
// (ErrDeadlineShed), rate limit (ErrRateLimited), in-flight quota
// (ErrQuotaExceeded) — and a tenant over its queued-jobs cap gets
// ErrQuotaExceeded even when the global queue has room.
func (s *Service) Submit(js JobSpec) (*Job, error) {
	js, err := js.withDefaults()
	if err != nil {
		return nil, err
	}
	tn, err := s.resolveTenant(js)
	if err != nil {
		return nil, err
	}
	if err := s.shedCheck(js); err != nil {
		return nil, err
	}
	// A nil error from admitTenant means the tenant was charged one
	// in-flight unit: every early return below must release it.
	if err := s.admitTenant(tn, js); err != nil {
		return nil, err
	}
	tm := s.tenancy.metrics(tn)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.releaseTenant(tn)
		return nil, ErrDraining
	}
	s.nextID++
	maxRetries := js.MaxRetries
	if maxRetries == 0 {
		maxRetries = s.cfg.DefaultMaxRetries
	}
	job := newJob(fmt.Sprintf("j%06d", s.nextID), js, time.Now(), maxRetries)
	job.tenant = tn
	s.m.queueDepth.Add(1)
	tm.queued.Add(1)
	if err := s.queue.Push(tn, job); err != nil {
		s.m.queueDepth.Add(-1)
		tm.queued.Add(-1)
		s.nextID--
		s.mu.Unlock()
		s.releaseTenant(tn)
		s.m.rejects.Inc()
		switch {
		case errors.Is(err, tenant.ErrTenantFull):
			tm.quota.Inc()
			return nil, retryAfterError{err: ErrQuotaExceeded, after: time.Second}
		case errors.Is(err, tenant.ErrClosed):
			return nil, ErrDraining
		default:
			return nil, ErrQueueFull
		}
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job)
	s.evictLocked()
	s.mu.Unlock()
	s.m.submitted.Inc()
	tm.admitted.Inc()
	return job, nil
}

// shedCheck is the SLO control loop's admission hook: while any objective
// fast-burns, a job carrying a deadline that the predicted p99 run latency
// cannot meet is shed with ErrShed — better to reject in O(1) at admission
// than to burn an engine slot on a job destined for DeadlineExceeded while
// the error budget is already draining. Jobs without a deadline are never
// shed (nothing promises them a latency), and without an SLO engine the
// check is free.
func (s *Service) shedCheck(js JobSpec) error {
	eng := s.cfg.SLO
	if eng == nil {
		return nil
	}
	fast := eng.FastBurn()
	if fast {
		s.m.fastBurn.Set(1)
	} else {
		s.m.fastBurn.Set(0)
	}
	if !fast || js.TimeoutMS <= 0 {
		return nil
	}
	p99, ok := eng.Quantile(SLORunLatency, 0.99)
	if !ok || p99 <= float64(js.TimeoutMS)/1000 {
		return nil
	}
	s.m.shed.Inc()
	s.m.rejects.Inc()
	return ErrShed
}

// Get returns the job with the given id, or ErrNotFound after eviction.
func (s *Service) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return job, nil
}

// List returns the retained jobs in submission order.
func (s *Service) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	copy(out, s.order)
	return out
}

// Cancel requests cancellation of the job: a queued job is finalized
// immediately, a running job is stopped through its context within one
// round, a terminal job is unaffected (idempotent).
func (s *Service) Cancel(id string) (*Job, error) {
	job, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	wasQueued, _ := job.requestCancel()
	if wasQueued {
		// The scheduler will pop the tombstone and skip it; account the
		// cancellation — and return the tenant's in-flight unit — here,
		// since no runner will.
		s.m.cancelled.Inc()
		s.m.queueSec.Observe(job.queueTime().Seconds())
		s.releaseTenant(job.tenant)
	}
	return job, nil
}

// QueueDepth reports the jobs currently waiting in the queue (including
// cancelled tombstones that still hold their slot until popped).
func (s *Service) QueueDepth() int { return s.queue.Len() }

// Draining reports whether Shutdown has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// scheduler is one worker of the in-flight pool: it pops admitted jobs
// (in the queue's weighted-fair order) and runs them — through retries, if
// the job has a budget — to a terminal state, until the queue is closed by
// Shutdown. Pop also enforces the effective in-flight limit: with the
// auto-tuner on, a worker beyond the current limit parks inside Pop.
func (s *Service) scheduler() {
	defer s.wg.Done()
	for {
		job, tn, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.m.queueDepth.Add(-1)
		tm := s.tenancy.metrics(tn)
		tm.queued.Add(-1)
		ctx, attempt, cp, ok := job.begin(s.baseCtx)
		if !ok {
			s.queue.Finish(tn)
			continue // cancelled while queued; Cancel released the tenant
		}
		att := Attempt{
			Number:     attempt,
			Checkpoint: cp,
			SaveCheckpoint: func(c *fault.Checkpoint) {
				if c == nil {
					return
				}
				s.m.checkpoints.Inc()
				job.setCheckpoint(c)
				if job.Spec.ExportCheckpoints {
					// Stream the snapshot so a router (or any follower of the
					// event stream) can resume the job elsewhere if this node
					// dies before the next export poll.
					s.m.events.Inc()
					job.Emit(Event{Kind: "checkpoint", Attempt: attempt, Round: c.Round, Checkpoint: c.Clone()})
				}
			},
		}
		queueWait := job.queueTime()
		s.m.queueSec.Observe(queueWait.Seconds())
		tm.queueSec.Observe(queueWait.Seconds())
		s.cfg.SLO.Observe(SLOQueueWait, queueWait.Seconds(), job.TraceID)
		s.emitPhase("queue_wait", queueWait, job, attempt)
		s.m.running.Add(1)
		// The attempt span wraps the whole runner invocation; ctx carries it
		// so the runner's build_instance/run spans and the runtime's round
		// events parent to it.
		sp, ctx := s.cfg.Trace.StartSpan(ctx, "attempt")
		sp = sp.WithAttempt(attempt)
		sum, err := s.runJob(ctx, job, att)
		sp.End()
		s.m.running.Add(-1)
		runTime := job.runTime()
		s.m.runSec.Observe(runTime.Seconds())
		s.cfg.SLO.Observe(SLORunLatency, runTime.Seconds(), job.TraceID)
		s.observeTenantRun(tn, runTime, job.TraceID)
		if s.maybeRetry(job, err) {
			s.queue.Finish(tn)
			continue // re-admitted; a later pop runs the next attempt
		}
		state := job.finish(sum, err)
		s.queue.Finish(tn)
		s.releaseTenant(tn)
		s.cfg.SLO.ObserveOutcome(SLOErrorRate, state != StateFailed, job.TraceID)
		switch state {
		case StateDone:
			s.m.done.Inc()
			tm.done.Inc()
		case StateFailed:
			s.m.failed.Inc()
			tm.failed.Inc()
		case StateCancelled:
			s.m.cancelled.Inc()
		}
	}
}

// emitPhase emits one already-measured phase as a "span" trace event under
// the job's trace (the queue wait is only known at dispatch, so it cannot
// be an open Span).
func (s *Service) emitPhase(phase string, d time.Duration, job *Job, attempt int) {
	if s.cfg.Trace == nil {
		return
	}
	s.cfg.Trace.Emit(obs.Event{
		Kind: "span", Phase: phase, DurNS: d.Nanoseconds(),
		Trace: job.TraceID, Span: obs.NewSpanID(), Job: job.ID, Attempt: attempt,
	})
}

// runJob invokes the runner with panic isolation: a panic anywhere in the
// attempt — an injected shard panic re-raised by the engine pool, or an
// organic bug — is recovered into a *fault.PanicError carrying the original
// stack, so the scheduler goroutine (and with it the daemon) survives and
// the failure flows through the ordinary retry/finalize path.
func (s *Service) runJob(ctx context.Context, job *Job, att Attempt) (sum *Summary, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.m.panics.Inc()
			err = fault.CapturePanic(r)
		}
	}()
	return s.runner(ctx, job.Spec, att, func(e Event) {
		s.m.events.Inc()
		job.Emit(e)
	})
}

// maybeRetry decides whether the attempt's failure is retried and, if so,
// schedules the re-admission after a jittered exponential backoff. Not
// retryable: success, cancellation (the user or a drain asked for the stop;
// context.DeadlineExceeded IS retried — with checkpointing on, the next
// attempt resumes the timed-out run's progress), an exhausted budget, a
// draining service.
func (s *Service) maybeRetry(job *Job, err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	attempt, remaining, cancelled := job.retryInfo()
	if cancelled {
		return false
	}
	if remaining <= 0 {
		if job.maxRetries > 0 {
			s.m.gaveup.Inc()
		}
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	delay := fault.Backoff(s.cfg.RetryBackoff, s.cfg.RetryBackoffMax, attempt, s.backoffRand)
	if !job.retry(err, delay) {
		return false
	}
	s.m.retries.Inc()
	s.retryTimers[job.ID] = time.AfterFunc(delay, func() { s.requeue(job) })
	return true
}

// requeue re-admits a retry-waiting job once its backoff elapses. A drain
// that started in the meantime cancels the job instead (mirroring the
// queued-job sweep in Shutdown); a full queue fails it — the retry budget
// does not entitle a job to a queue slot others are rejected for.
func (s *Service) requeue(job *Job) {
	s.mu.Lock()
	delete(s.retryTimers, job.ID)
	if s.draining {
		s.mu.Unlock()
		if wasQueued, _ := job.requestCancel(); wasQueued {
			s.m.cancelled.Inc()
			s.releaseTenant(job.tenant)
		}
		return
	}
	tm := s.tenancy.metrics(job.tenant)
	s.m.queueDepth.Add(1)
	tm.queued.Add(1)
	// A retrying job re-enters its tenant's sub-queue but not the limiter:
	// its in-flight unit is still held from the original admission.
	if err := s.queue.Push(job.tenant, job); err != nil {
		s.m.queueDepth.Add(-1)
		tm.queued.Add(-1)
		s.mu.Unlock()
		s.m.gaveup.Inc()
		if job.failQueued("service: retry re-admission rejected: queue full") {
			s.m.failed.Inc()
			tm.failed.Inc()
			s.releaseTenant(job.tenant)
		}
		return
	}
	s.mu.Unlock()
}

// evictLocked enforces Config.Retention: while more than Retention terminal
// jobs are stored, the oldest terminal ones are dropped (queued/running
// jobs are never evicted). Callers hold s.mu.
func (s *Service) evictLocked() {
	terminal := 0
	for _, j := range s.order {
		if j.State().Terminal() {
			terminal++
		}
	}
	if terminal <= s.cfg.Retention {
		return
	}
	kept := s.order[:0]
	for _, j := range s.order {
		if terminal > s.cfg.Retention && j.State().Terminal() {
			delete(s.jobs, j.ID)
			terminal--
			continue
		}
		kept = append(kept, j)
	}
	// Zero the tail so evicted jobs are collectable.
	for i := len(kept); i < len(s.order); i++ {
		s.order[i] = nil
	}
	s.order = kept
}

// Shutdown drains the service: admission stops (ErrDraining), queued jobs
// are cancelled, and running jobs are given until ctx is done to finish.
// When ctx expires first, the remaining jobs are cancelled through their
// run contexts (stopping within one round, partial results retained) and
// Shutdown returns ctx.Err() after they unwind. Idempotent calls beyond
// the first wait for the same drain.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	var queued []*Job
	if !already {
		// Stop the pending retry timers: draining is set, so a timer that
		// already fired and is waiting on s.mu will see it and cancel its
		// job instead of enqueueing. Retry-waiting jobs are StateQueued and
		// are finalized by the sweep below like any other queued job.
		for id, t := range s.retryTimers {
			t.Stop()
			delete(s.retryTimers, id)
		}
		for _, j := range s.order {
			if j.State() == StateQueued {
				queued = append(queued, j)
			}
		}
	}
	s.mu.Unlock()
	if !already {
		if s.peers != nil {
			s.stopCluster()
		}
		if s.tuneStop != nil {
			close(s.tuneStop)
			s.tuneWG.Wait()
		}
		for _, j := range queued {
			if wasQueued, _ := j.requestCancel(); wasQueued {
				s.m.cancelled.Inc()
				s.releaseTenant(j.tenant)
			}
		}
		s.queue.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel() // hard-cancel the still-running jobs
		<-done
		return ctx.Err()
	}
}
