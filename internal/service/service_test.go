package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// stubRunner is a controllable Runner: it signals starts, then blocks until
// released or cancelled. runs counts jobs that actually executed.
type stubRunner struct {
	started chan string
	release chan struct{}
	runs    atomic.Int64
}

func newStubRunner() *stubRunner {
	return &stubRunner{started: make(chan string, 64), release: make(chan struct{}, 64)}
}

func (r *stubRunner) run(ctx context.Context, js JobSpec, att Attempt, emit func(Event)) (*Summary, error) {
	r.runs.Add(1)
	r.started <- js.Family
	emit(Event{Kind: "round", Round: 1})
	select {
	case <-r.release:
		return &Summary{Algorithm: js.Algorithm, Satisfied: true}, nil
	case <-ctx.Done():
		return &Summary{Algorithm: js.Algorithm}, fmt.Errorf("stub stopped: %w", ctx.Err())
	}
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for j.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", j.ID, j.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// jobEvents decodes the events of j's stream from position from on and
// returns them with the wake channel and the state that EventsSince
// returns.
func jobEvents(t testing.TB, j *Job, from int) ([]Event, <-chan struct{}, State) {
	t.Helper()
	lines, n, more, state := j.EventsSince(from)
	events := make([]Event, 0, n)
	for dec := json.NewDecoder(bytes.NewReader(lines)); dec.More(); {
		var e Event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("job %s: event %d: %v", j.ID, from+len(events), err)
		}
		events = append(events, e)
	}
	if len(events) != n {
		t.Fatalf("job %s: decoded %d events from %d on, EventsSince counts %d", j.ID, len(events), from, n)
	}
	return events, more, state
}

func waitStarted(t *testing.T, r *stubRunner) {
	t.Helper()
	select {
	case <-r.started:
	case <-time.After(5 * time.Second):
		t.Fatal("no job started within 5s")
	}
}

// TestQueueFullAdmission: with one in-flight slot and a queue of one, the
// third concurrent job is rejected with ErrQueueFull — admission control
// sheds load instead of building a backlog.
func TestQueueFullAdmission(t *testing.T) {
	reg := obs.NewRegistry()
	r := newStubRunner()
	s := New(Config{QueueCap: 1, MaxInFlight: 1, Metrics: reg, Runner: r.run})
	defer s.Shutdown(context.Background())

	a, err := s.Submit(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, r) // a is running, the queue is empty
	b, err := s.Submit(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
	if got := reg.Counter("service_admission_rejects_total").Value(); got != 1 {
		t.Errorf("rejects counter = %d, want 1", got)
	}
	if got := reg.Gauge("service_queue_depth").Value(); got != 1 {
		t.Errorf("queue depth gauge = %v, want 1 (job b)", got)
	}

	r.release <- struct{}{}
	r.release <- struct{}{}
	waitState(t, a, StateDone)
	waitState(t, b, StateDone)
	if got := reg.Gauge("service_queue_depth").Value(); got != 0 {
		t.Errorf("queue depth gauge after drain = %v, want 0", got)
	}
	if got := reg.Counter("service_jobs_done_total").Value(); got != 2 {
		t.Errorf("done counter = %d, want 2", got)
	}
}

// TestCancelWhileQueued: cancelling a job that is still waiting finalizes
// it immediately and the scheduler never runs it.
func TestCancelWhileQueued(t *testing.T) {
	reg := obs.NewRegistry()
	r := newStubRunner()
	s := New(Config{QueueCap: 4, MaxInFlight: 1, Metrics: reg, Runner: r.run})
	defer s.Shutdown(context.Background())

	a, _ := s.Submit(JobSpec{})
	waitStarted(t, r)
	b, err := s.Submit(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	if st := b.State(); st != StateCancelled {
		t.Fatalf("cancelled-while-queued state = %q, want %q immediately", st, StateCancelled)
	}

	r.release <- struct{}{}
	waitState(t, a, StateDone)
	// Give the scheduler a chance to (wrongly) pick up b.
	time.Sleep(20 * time.Millisecond)
	if got := r.runs.Load(); got != 1 {
		t.Errorf("runner executed %d jobs, want 1 (cancelled job must be skipped)", got)
	}
	if got := reg.Counter("service_jobs_cancelled_total").Value(); got != 1 {
		t.Errorf("cancelled counter = %d, want 1", got)
	}
	// Cancel is idempotent on terminal jobs.
	if _, err := s.Cancel(b.ID); err != nil {
		t.Errorf("second cancel: %v", err)
	}
	if got := reg.Counter("service_jobs_cancelled_total").Value(); got != 1 {
		t.Errorf("cancelled counter after idempotent cancel = %d, want 1", got)
	}
}

// TestCancelWhileRunning: cancelling a running job cancels its context;
// the runner's partial summary is retained and marked Partial.
func TestCancelWhileRunning(t *testing.T) {
	r := newStubRunner()
	s := New(Config{QueueCap: 4, MaxInFlight: 1, Runner: r.run})
	defer s.Shutdown(context.Background())

	a, _ := s.Submit(JobSpec{})
	waitStarted(t, r)
	if _, err := s.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, a, StateCancelled)
	v := a.View()
	if v.Result == nil || !v.Result.Partial {
		t.Errorf("cancelled run result = %+v, want retained partial summary", v.Result)
	}
	if v.Error == "" {
		t.Error("cancelled run lost its error message")
	}
}

// TestShutdownDrain: Shutdown stops admission, cancels queued jobs, and
// waits for running jobs to finish normally.
func TestShutdownDrain(t *testing.T) {
	reg := obs.NewRegistry()
	r := newStubRunner()
	s := New(Config{QueueCap: 4, MaxInFlight: 1, Metrics: reg, Runner: r.run})

	a, _ := s.Submit(JobSpec{})
	waitStarted(t, r)
	b, _ := s.Submit(JobSpec{})

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()

	waitState(t, b, StateCancelled) // queued job cancelled by the drain
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(JobSpec{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: err = %v, want ErrDraining", err)
	}

	r.release <- struct{}{} // let the running job complete
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown returned %v, want nil (clean drain)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the running job finished")
	}
	if st := a.State(); st != StateDone {
		t.Errorf("running job drained into %q, want %q", st, StateDone)
	}
}

// TestShutdownDeadlineCancelsRunning: when the drain context expires, the
// running jobs are cancelled through their run contexts and Shutdown
// returns the context error.
func TestShutdownDeadlineCancelsRunning(t *testing.T) {
	r := newStubRunner()
	s := New(Config{QueueCap: 4, MaxInFlight: 1, Runner: r.run})

	a, _ := s.Submit(JobSpec{})
	waitStarted(t, r)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	waitState(t, a, StateCancelled)
}

// TestRetention: terminal jobs beyond Config.Retention are evicted oldest
// first; Get on an evicted id reports ErrNotFound.
func TestRetention(t *testing.T) {
	r := newStubRunner()
	s := New(Config{QueueCap: 8, MaxInFlight: 1, Retention: 2, Runner: r.run})
	defer s.Shutdown(context.Background())

	var jobs []*Job
	for i := 0; i < 5; i++ {
		j, err := s.Submit(JobSpec{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		waitStarted(t, r)
		r.release <- struct{}{}
		waitState(t, j, StateDone)
	}
	// Eviction happens at admission: submit one more to trigger it.
	last, err := s.Submit(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(jobs[0].ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("oldest job still retained, want ErrNotFound")
	}
	if _, err := s.Get(jobs[4].ID); err != nil {
		t.Errorf("newest terminal job evicted too eagerly: %v", err)
	}
	waitStarted(t, r)
	r.release <- struct{}{}
	waitState(t, last, StateDone)
}

// TestSchedulerLeaksNoGoroutines: a full submit/run/shutdown cycle returns
// the process to its baseline goroutine count.
func TestSchedulerLeaksNoGoroutines(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()

	r := newStubRunner()
	s := New(Config{QueueCap: 8, MaxInFlight: 4, Runner: r.run})
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(JobSpec{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		waitStarted(t, r)
		r.release <- struct{}{}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEventStreamOrdering: events carry dense sequence numbers and the
// lifecycle kinds appear in order across the queued→running→done path.
func TestEventStreamOrdering(t *testing.T) {
	r := newStubRunner()
	s := New(Config{QueueCap: 4, MaxInFlight: 1, Runner: r.run})
	defer s.Shutdown(context.Background())

	j, _ := s.Submit(JobSpec{})
	waitStarted(t, r)
	r.release <- struct{}{}
	waitState(t, j, StateDone)

	events, _, state := jobEvents(t, j, 0)
	if !state.Terminal() {
		t.Fatalf("state = %q after done wait", state)
	}
	kinds := make([]string, len(events))
	for i, e := range events {
		if e.Seq != i {
			t.Errorf("event %d has Seq %d, want dense numbering", i, e.Seq)
		}
		kinds[i] = e.Kind
	}
	want := []string{"queued", "start", "round", "end"}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	if last := events[len(events)-1]; last.State != StateDone {
		t.Errorf("end event state = %q, want %q", last.State, StateDone)
	}
}

// TestRunSpecEndToEnd exercises the real runner on every algorithm over a
// small solvable instance: each produces a satisfied summary, and the
// LOCAL-backed ones stream round events.
func TestRunSpecEndToEnd(t *testing.T) {
	for _, alg := range []string{AlgSeq, AlgDist, AlgMTSeq, AlgMTPar, AlgMTDist, AlgOneShot} {
		t.Run(alg, func(t *testing.T) {
			var rounds atomic.Int64
			emit := func(e Event) {
				if e.Kind == "round" {
					rounds.Add(1)
				}
			}
			sum, err := RunSpec(context.Background(),
				JobSpec{Family: FamilySinkless, N: 48, Margin: 0.9, Algorithm: alg, Seed: 7},
				Attempt{Number: 1}, emit, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if alg != AlgOneShot && !sum.Satisfied {
				t.Errorf("%s: summary not satisfied: %+v", alg, sum)
			}
			if sum.NumEvents != 48 {
				t.Errorf("NumEvents = %d, want 48", sum.NumEvents)
			}
			switch alg {
			case AlgDist, AlgMTDist, AlgMTPar:
				if rounds.Load() == 0 {
					t.Errorf("%s: no round events emitted", alg)
				}
			}
		})
	}
}

// TestRunSpecCancelDist: a real distributed job cancelled mid-run returns a
// partial summary carrying the rounds completed so far.
func TestRunSpecCancelDist(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sawRound := false
	emit := func(e Event) {
		if e.Kind == "round" && e.Round == 2 {
			sawRound = true
			cancel()
		}
	}
	sum, err := RunSpec(ctx,
		JobSpec{Family: FamilySinkless, N: 4096, Margin: 0.9, Algorithm: AlgDist, Seed: 3},
		Attempt{Number: 1}, emit, RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !sawRound {
		t.Fatal("cancel hook never fired")
	}
	if sum == nil {
		t.Fatal("cancelled RunSpec returned nil summary")
	}
	if sum.ViolatedEvents != -1 {
		t.Errorf("partial summary claims a violated count: %d", sum.ViolatedEvents)
	}
}

// TestSubmitValidation: bad specs are rejected at admission, not at run
// time.
func TestSubmitValidation(t *testing.T) {
	s := New(Config{QueueCap: 2, MaxInFlight: 1, Runner: newStubRunner().run})
	defer s.Shutdown(context.Background())
	for _, js := range []JobSpec{
		{Family: "nope"},
		{Algorithm: "nope"},
		{Family: FamilyHyper, N: 31, Degree: 4}, // 31*4 not divisible by 3
		{Family: FamilyInline},                  // missing instance
		{N: -1},
		{TimeoutMS: -5},
	} {
		if _, err := s.Submit(js); err == nil {
			t.Errorf("spec %+v admitted, want validation error", js)
		}
	}
}
