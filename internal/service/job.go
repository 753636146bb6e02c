package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// State is a job's lifecycle state. Transitions:
//
//	queued → running → done | failed | cancelled
//	queued → cancelled                       (cancel before dispatch)
//
// Terminal states never change again.
type State string

const (
	// StateQueued: accepted by admission control, waiting for a scheduler
	// slot.
	StateQueued State = "queued"
	// StateRunning: executing on the engine worker pool.
	StateRunning State = "running"
	// StateDone: completed without error (the result may still report an
	// unsatisfied instance — that is an experiment outcome, not a job
	// failure).
	StateDone State = "done"
	// StateFailed: the runner returned a non-cancellation error (bad
	// generator parameters, rank too high for the fixer, deadline
	// exceeded, ...).
	StateFailed State = "failed"
	// StateCancelled: cancelled while queued, cancelled while running, or
	// killed by a forced shutdown.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one record of a job's event stream, served as NDJSON (one JSON
// object per line) by GET /v1/jobs/{id}/events. Kinds: "queued" (admission),
// "start" (dispatch of one attempt), "round" (one synchronous round of the
// underlying runtime, carrying the deterministic engine.RoundStats fields),
// "retry" (a failed attempt re-admitted with backoff, carrying the failure
// and the delay), "end" (terminal transition, carrying the final state and
// error if any — plus the captured stack when the failure was a panic).
type Event struct {
	// Seq is the 0-based position in the job's stream (dense, strictly
	// increasing).
	Seq int `json:"seq"`
	// Kind is the event type: queued | start | round | retry | end.
	Kind string `json:"kind"`
	// TimeMS is milliseconds since the job was accepted.
	TimeMS int64 `json:"t_ms"`
	// Attempt is the 1-based attempt number: on "start" the attempt being
	// dispatched, on "retry" the attempt that just failed, on "end" the
	// attempt that produced the terminal state.
	Attempt int `json:"attempt,omitempty"`
	// BackoffMS is the delay before the next attempt ("retry" events).
	BackoffMS int64 `json:"backoff_ms,omitempty"`
	// Round / Steps / Messages / Active / Halted mirror engine.RoundStats
	// for "round" events; Dropped / Crashed carry the round's injected
	// faults (zero without injection).
	Round    int `json:"round,omitempty"`
	Steps    int `json:"steps,omitempty"`
	Messages int `json:"messages,omitempty"`
	Active   int `json:"active,omitempty"`
	Halted   int `json:"halted,omitempty"`
	Dropped  int `json:"dropped,omitempty"`
	Crashed  int `json:"crashed,omitempty"`
	// Instance is the 1-based batch instance id of a batch job's "round"
	// and "instance_end" events; the NDJSON stream of a batch job is
	// multiplexed over it (0 = a job-level event).
	Instance int `json:"instance,omitempty"`
	// CacheHit marks a "cache_hit" or "instance_end" event served from the
	// canonical result cache instead of a fresh solve.
	CacheHit bool `json:"cache_hit,omitempty"`
	// State is the job's state after an "end" event.
	State State `json:"state,omitempty"`
	// Err carries the failure or cancellation cause of an "end" or "retry"
	// event.
	Err string `json:"err,omitempty"`
	// Stack is the panicking goroutine's stack when the failure of an "end"
	// event was a recovered panic.
	Stack string `json:"stack,omitempty"`
	// Node is the cluster node that produced the event, stamped by the
	// router on federated streams (empty on a node's own stream).
	Node string `json:"node,omitempty"`
	// Peer marks a "cache_hit" served through the peer cache-fill protocol
	// (the entry came from the key's home node, not the local cache).
	Peer bool `json:"peer,omitempty"`
	// Resumed marks the "queued" event of a job seeded with a migrated
	// checkpoint (JobSpec.Resume); Round then echoes the checkpoint's
	// progress counter.
	Resumed bool `json:"resumed,omitempty"`
	// Checkpoint carries the full serialized snapshot on "checkpoint"
	// events (jobs with export_checkpoints only) and on the router's
	// synthetic "migrated" events (the snapshot the job moved with).
	Checkpoint *fault.Checkpoint `json:"checkpoint,omitempty"`
	// Trace is the job's trace ID, stamped on "queued" and "end" events; its
	// spans (queue_wait, attempt, build_instance, run, rounds) are on the
	// daemon's JSONL trace stream under the same ID.
	Trace string `json:"trace,omitempty"`
	// QueueMS / RunMS summarize the job's latency split on "end" events:
	// admission-to-dispatch wait and last-attempt run time.
	QueueMS int64 `json:"queue_ms,omitempty"`
	RunMS   int64 `json:"run_ms,omitempty"`
	// Flight is the flight-recorder dump — the job's last recorded moments
	// (rounds, faults, retries, checkpoints) — included in the "end" event
	// of a failed or cancelled job so post-mortems need no debugger.
	// FlightTotal counts all entries ever recorded; when it exceeds
	// len(Flight) the older ones were overwritten by the bounded ring.
	Flight      []obs.FlightEntry `json:"flight,omitempty"`
	FlightTotal int64             `json:"flight_total,omitempty"`
}

// Summary is the result of a completed (or partially completed) job run.
// Fields that do not apply to the chosen algorithm stay zero and are
// omitted from the JSON.
type Summary struct {
	// Algorithm / Family echo the spec after defaulting.
	Algorithm string `json:"algorithm"`
	Family    string `json:"family"`
	// NumEvents / NumVars describe the built instance.
	NumEvents int `json:"num_events"`
	NumVars   int `json:"num_vars"`
	// Satisfied reports whether the final assignment avoids all bad
	// events; ViolatedEvents is the violated count (-1 when unknown, e.g.
	// a cancelled distributed run that produced no assignment).
	Satisfied      bool `json:"satisfied"`
	ViolatedEvents int  `json:"violated_events"`
	// Rounds is the LOCAL/parallel round count; ColoringRounds,
	// FixingRounds and Classes detail the distributed fixers.
	Rounds         int `json:"rounds,omitempty"`
	ColoringRounds int `json:"coloring_rounds,omitempty"`
	FixingRounds   int `json:"fixing_rounds,omitempty"`
	Classes        int `json:"classes,omitempty"`
	Messages       int `json:"messages,omitempty"`
	Resamplings    int `json:"resamplings,omitempty"`
	Iterations     int `json:"iterations,omitempty"`
	VarsFixed      int `json:"vars_fixed,omitempty"`
	Steps          int `json:"steps,omitempty"`
	// AssignmentHash is a 64-bit fold of the complete final assignment
	// (0 when the run stopped before completing one). Because runs are
	// deterministic and checkpoint resume is bit-identical, a migrated
	// job's hash must equal the uninterrupted solo run's — the cluster
	// smoke and the cross-process resume test assert exactly this.
	AssignmentHash uint64 `json:"assignment_hash,omitempty"`
	// Partial marks a summary assembled from a cancelled or failed run:
	// the counters cover only the work completed before the stop.
	Partial bool `json:"partial,omitempty"`
	// CacheHit marks a summary served from the canonical result cache; the
	// payload is bit-identical to the cold solve that populated the entry.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Instances carries the per-instance results of a batch job, in batch
	// order; the aggregate fields above sum (or, for Rounds, max) over
	// them.
	Instances []InstanceSummary `json:"instances,omitempty"`
}

// InstanceSummary is the result of one instance of a batch job.
type InstanceSummary struct {
	// Index is the 1-based position in the batch (matches Event.Instance).
	Index int `json:"index"`
	// Algorithm / Seed echo the instance's normalized sub-spec.
	Algorithm string `json:"algorithm,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	// Satisfied / ViolatedEvents / Rounds / Resamplings / VarsFixed mirror
	// the corresponding Summary fields for this instance alone.
	Satisfied      bool `json:"satisfied"`
	ViolatedEvents int  `json:"violated_events"`
	Rounds         int  `json:"rounds,omitempty"`
	Resamplings    int  `json:"resamplings,omitempty"`
	VarsFixed      int  `json:"vars_fixed,omitempty"`
	// CacheHit marks an instance served from the canonical result cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Err is the instance's own failure; other instances are unaffected.
	Err string `json:"err,omitempty"`
}

// Job is one unit of work tracked by the Service. All fields except ID and
// Spec are guarded by mu; read them through the accessor methods.
type Job struct {
	// ID is the service-assigned job identifier.
	ID string
	// TraceID is the request trace minted at admission; every span and
	// runtime event executed for this job carries it on the JSONL trace
	// stream, and the NDJSON "queued"/"end" events echo it.
	TraceID string
	// Spec is the normalized job specification.
	Spec JobSpec

	created time.Time
	// tenant is the resolved tenant the job is accounted to. Written once
	// by Submit before the job becomes visible (so no lock), read by the
	// scheduler, cancel and shutdown paths for limiter release and
	// per-tenant accounting.
	tenant string
	// flight is the job's bounded flight recorder (see obs.Flight): event
	// appends and checkpoint saves mirror into it, and finish dumps it into
	// the end event of a failed or cancelled job.
	flight *obs.Flight

	mu              sync.Mutex
	state           State
	started         time.Time
	finished        time.Time
	cancelRequested bool
	cancel          context.CancelFunc // set while running
	log             EventLog
	summary         *Summary
	errMsg          string
	// attempt counts the attempts started (1 after the first begin);
	// maxRetries is the resolved retry budget (spec value or service
	// default); checkpoint is the latest snapshot saved by any attempt,
	// handed to the next attempt's runner.
	attempt    int
	maxRetries int
	checkpoint *fault.Checkpoint
}

// flightRing is the per-job flight-recorder depth: the last flightRing
// events (rounds, faults, retries, checkpoints) survive into a failed
// job's end-event dump. Memory per job is bounded by construction.
const flightRing = 64

// newJob creates a queued job and records its "queued" event (safe: the
// job is not yet visible to any other goroutine). A spec-carried trace ID
// (migration) overrides the minted one, and a spec-carried Resume
// checkpoint seeds the job record so the first attempt continues where
// the exporting process stopped.
func newJob(id string, spec JobSpec, now time.Time, maxRetries int) *Job {
	trace := spec.TraceID
	if trace == "" {
		trace = obs.NewTraceID()
	}
	j := &Job{
		ID: id, TraceID: trace, Spec: spec, created: now,
		state: StateQueued, maxRetries: maxRetries,
		flight: obs.NewFlight(flightRing),
	}
	queued := Event{Kind: "queued", Trace: j.TraceID}
	if spec.Resume != nil {
		j.checkpoint = spec.Resume.Clone()
		queued.Resumed = true
		queued.Round = j.checkpoint.Round
	}
	j.log.Append(&queued) // a queued event always encodes
	return j
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Emit stamps one event's Seq and TimeMS, appends it to the job's stream
// (see EventLog.Append) and wakes waiting subscribers. It is the sink
// handed to the Runner.
func (j *Job) Emit(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.emitLocked(e)
}

func (j *Job) emitLocked(e Event) {
	e.TimeMS = time.Since(j.created).Milliseconds()
	_ = j.log.Append(&e) // one that does not encode is left out; the flight recorder keeps it
	// Mirror the event into the flight recorder — except the "end" event,
	// which is where the dump itself rides.
	if e.Kind != "end" {
		detail := e.Err
		if e.Kind == "retry" {
			detail = fmt.Sprintf("%s (backoff %dms)", e.Err, e.BackoffMS)
		}
		j.flight.Record(obs.FlightEntry{
			Kind: e.Kind, Attempt: e.Attempt, Round: e.Round, Steps: e.Steps,
			Active: e.Active, Dropped: e.Dropped, Crashed: e.Crashed,
			Instance: e.Instance, Detail: detail,
		})
	}
}

// EventsSince returns EventLog.Since(from) of the job's stream and the
// job's state, read under one lock: a terminal state comes with the "end"
// event, and a subscriber that waits on the channel misses no wake-up.
func (j *Job) EventsSince(from int) (lines []byte, n int, more <-chan struct{}, state State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	lines, n, more = j.log.Since(from)
	return lines, n, more, j.state
}

// begin transitions queued → running for the next attempt and returns the
// run context plus the attempt number and the checkpoint to resume from
// (nil on the first attempt or when no checkpoint was saved). It returns
// ok=false (and does nothing) when the job is no longer queued — i.e. it
// was cancelled while waiting — which is how the scheduler skips tombstones
// in the queue. The per-job timeout restarts on every attempt: it bounds
// one attempt's wall clock, not the job's lifetime.
func (j *Job) begin(parent context.Context) (ctx context.Context, attempt int, cp *fault.Checkpoint, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return nil, 0, nil, false
	}
	if ms := j.Spec.TimeoutMS; ms > 0 {
		ctx, j.cancel = context.WithTimeout(parent, time.Duration(ms)*time.Millisecond)
	} else {
		ctx, j.cancel = context.WithCancel(parent)
	}
	// Every layer below — the runner, the batch packer, local.Run, the
	// resamplers — reads the trace from this context and tags its events.
	ctx = obs.WithTrace(ctx, obs.TraceContext{Trace: j.TraceID, Job: j.ID})
	j.state = StateRunning
	j.started = time.Now()
	j.attempt++
	j.emitLocked(Event{Kind: "start", Attempt: j.attempt})
	return ctx, j.attempt, j.checkpoint, true
}

// setCheckpoint stores the latest snapshot; the next attempt resumes from
// it. The checkpoint is cloned so the stored state cannot alias buffers the
// runtime keeps mutating.
func (j *Job) setCheckpoint(cp *fault.Checkpoint) {
	if cp == nil {
		return
	}
	cp = cp.Clone()
	j.mu.Lock()
	j.checkpoint = cp
	j.mu.Unlock()
	j.flight.Record(obs.FlightEntry{
		Kind: "checkpoint", Round: cp.Round,
		Detail: fmt.Sprintf("resamplings=%d", cp.Resamplings),
	})
}

// Checkpoint returns a clone of the job's latest saved checkpoint (nil
// when none was taken). It is the pull side of the migration protocol:
// GET /v1/jobs/{id}/checkpoint serves it so a router — or an operator —
// can move an interrupted job to another process.
func (j *Job) Checkpoint() *fault.Checkpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.checkpoint.Clone()
}

// retryInfo reports the attempts started so far, the retries left in the
// budget and whether cancellation was requested.
func (j *Job) retryInfo() (attempt, remaining int, cancelled bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempt, j.maxRetries - (j.attempt - 1), j.cancelRequested
}

// retry transitions running → queued for the next attempt, recording the
// failed attempt and the backoff as a "retry" event. It returns false when
// the job is no longer running (cancelled concurrently), in which case the
// caller finalizes instead.
func (j *Job) retry(err error, backoff time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.cancelRequested {
		return false
	}
	if j.cancel != nil {
		j.cancel()
		j.cancel = nil
	}
	j.state = StateQueued
	j.emitLocked(Event{Kind: "retry", Attempt: j.attempt, BackoffMS: backoff.Milliseconds(), Err: err.Error()})
	return true
}

// failQueued finalizes a queued job as failed without running it (retry
// re-admission hit a full queue). Reports whether the transition happened.
func (j *Job) failQueued(msg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateFailed
	j.errMsg = msg
	j.finished = time.Now()
	j.emitLocked(j.endEventLocked(Event{Kind: "end", State: j.state, Attempt: j.attempt, Err: j.errMsg}))
	return true
}

// endEventLocked decorates an "end" event with the trace ID, the latency
// split and — for failed/cancelled jobs — the flight-recorder dump.
// Callers hold j.mu.
func (j *Job) endEventLocked(e Event) Event {
	e.Trace = j.TraceID
	if !j.started.IsZero() {
		e.QueueMS = j.started.Sub(j.created).Milliseconds()
		if !j.finished.IsZero() {
			e.RunMS = j.finished.Sub(j.started).Milliseconds()
		}
	} else if !j.finished.IsZero() {
		e.QueueMS = j.finished.Sub(j.created).Milliseconds()
	}
	if j.state != StateDone {
		e.Flight = j.flight.Dump()
		e.FlightTotal = j.flight.Total()
	}
	return e
}

// finish records the runner's outcome and transitions to the terminal
// state: cancelled when the run was stopped through its context, failed on
// any other error (including a per-job deadline or a recovered panic), done
// otherwise. The partial summary of a stopped run is kept and marked
// Partial; a panic failure's end event carries the panicking goroutine's
// stack.
func (j *Job) finish(sum *Summary, err error) State {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancel != nil {
		j.cancel()
		j.cancel = nil
	}
	var stack string
	switch {
	case err == nil:
		j.state = StateDone
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
	default:
		j.state = StateFailed
		var pe *fault.PanicError
		if errors.As(err, &pe) {
			stack = string(pe.Stack)
		}
	}
	if err != nil {
		j.errMsg = err.Error()
		if sum != nil {
			sum.Partial = true
		}
	}
	j.summary = sum
	j.finished = time.Now()
	j.emitLocked(j.endEventLocked(Event{Kind: "end", State: j.state, Attempt: j.attempt, Err: j.errMsg, Stack: stack}))
	return j.state
}

// requestCancel implements DELETE /v1/jobs/{id}: a queued job is finalized
// immediately (the scheduler will skip it), a running job has its context
// cancelled (the runner observes it within one round), a terminal job is
// left untouched. It reports which transition happened.
func (j *Job) requestCancel() (wasQueued, wasRunning bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.cancelRequested = true
		j.state = StateCancelled
		j.finished = time.Now()
		j.errMsg = "cancelled while queued"
		j.emitLocked(j.endEventLocked(Event{Kind: "end", State: j.state, Err: j.errMsg}))
		return true, false
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
		return false, true
	default:
		return false, false
	}
}

// queueTime returns how long the job waited in the queue; runTime how long
// it ran (so far, for a running job).
func (j *Job) queueTime() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case !j.started.IsZero():
		return j.started.Sub(j.created)
	case j.state.Terminal(): // cancelled while queued
		return j.finished.Sub(j.created)
	default:
		return time.Since(j.created)
	}
}

func (j *Job) runTime() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.started.IsZero():
		return 0
	case j.finished.IsZero():
		return time.Since(j.started)
	default:
		return j.finished.Sub(j.started)
	}
}

// View is the JSON representation of a job served by the HTTP API.
type View struct {
	ID string `json:"id"`
	// TraceID is the job's request trace; grep it in the daemon's JSONL
	// trace file (llld -trace) to reconstruct the job's full span tree.
	TraceID string  `json:"trace_id"`
	State   State   `json:"state"`
	Spec    JobSpec `json:"spec"`
	Created string  `json:"created"`
	// QueueMS / RunMS are the queue wait and run duration in milliseconds
	// (live values for a non-terminal job).
	QueueMS int64 `json:"queue_ms"`
	RunMS   int64 `json:"run_ms,omitempty"`
	// Events is the current length of the event stream.
	Events int      `json:"events"`
	Error  string   `json:"error,omitempty"`
	Result *Summary `json:"result,omitempty"`
	// Attempts is the number of attempts started; CheckpointRound the
	// progress counter of the latest saved checkpoint (0 when none).
	Attempts        int `json:"attempts,omitempty"`
	CheckpointRound int `json:"checkpoint_round,omitempty"`
	// Node is the cluster node currently holding the job, stamped by the
	// router (empty on a node's own view). Migrated counts the times the
	// router moved the job to a surviving node.
	Node     string `json:"node,omitempty"`
	Migrated int    `json:"migrated,omitempty"`
}

// View snapshots the job for the HTTP API.
func (j *Job) View() View {
	queueMS := j.queueTime().Milliseconds()
	runMS := j.runTime().Milliseconds()
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:       j.ID,
		TraceID:  j.TraceID,
		State:    j.state,
		Spec:     j.Spec,
		Created:  j.created.UTC().Format(time.RFC3339Nano),
		QueueMS:  queueMS,
		RunMS:    runMS,
		Events:   j.log.Len(),
		Error:    j.errMsg,
		Attempts: j.attempt,
	}
	if j.checkpoint != nil {
		v.CheckpointRound = j.checkpoint.Round
	}
	if j.summary != nil {
		s := *j.summary
		v.Result = &s
	}
	return v
}
