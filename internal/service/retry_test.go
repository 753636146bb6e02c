package service

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// flakyRunner fails with errOrPanic until attempt number succeedAt, then
// returns a satisfied summary. It records the Attempt values it saw.
type flakyRunner struct {
	succeedAt int
	panics    bool
	mu        chan struct{} // 1-token mutex usable in tests
	attempts  []Attempt
}

func newFlakyRunner(succeedAt int, panics bool) *flakyRunner {
	r := &flakyRunner{succeedAt: succeedAt, panics: panics, mu: make(chan struct{}, 1)}
	r.mu <- struct{}{}
	return r
}

func (r *flakyRunner) run(ctx context.Context, js JobSpec, att Attempt, emit func(Event)) (*Summary, error) {
	<-r.mu
	r.attempts = append(r.attempts, att)
	r.mu <- struct{}{}
	emit(Event{Kind: "round", Round: att.Number})
	if att.Number < r.succeedAt || r.succeedAt == 0 {
		att.SaveCheckpoint(&fault.Checkpoint{Algorithm: "stub", Round: att.Number * 10})
		if r.panics {
			panic(boomPayload(att.Number))
		}
		return nil, errors.New("attempt doomed")
	}
	return &Summary{Algorithm: js.Algorithm, Satisfied: true}, nil
}

// boomPayload builds a recognizable panic payload per attempt (n < 10).
func boomPayload(n int) string { return "boom-" + string(rune('0'+n)) }

func retryConfig(reg *obs.Registry, runner Runner, maxRetries int) Config {
	return Config{
		QueueCap:          8,
		MaxInFlight:       1,
		Metrics:           reg,
		Runner:            runner,
		DefaultMaxRetries: maxRetries,
		RetryBackoff:      time.Millisecond,
		RetryBackoffMax:   4 * time.Millisecond,
	}
}

// TestRetryThenSucceed: an attempt that fails is retried after backoff and
// the job completes on the second attempt, with the full retry story in the
// event stream and the metrics.
func TestRetryThenSucceed(t *testing.T) {
	reg := obs.NewRegistry()
	r := newFlakyRunner(2, false)
	s := New(retryConfig(reg, r.run, 3))
	defer s.Shutdown(context.Background())

	j, err := s.Submit(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)

	events, _, _ := jobEvents(t, j, 0)
	var retries, starts int
	var retryEv, endEv *Event
	for i := range events {
		switch events[i].Kind {
		case "retry":
			retries++
			retryEv = &events[i]
		case "start":
			starts++
		case "end":
			endEv = &events[i]
		}
	}
	if retries != 1 || starts != 2 {
		t.Fatalf("saw %d retry / %d start events, want 1 / 2", retries, starts)
	}
	if retryEv.Attempt != 1 || retryEv.Err == "" {
		t.Errorf("retry event = %+v, want attempt 1 with the failure message", retryEv)
	}
	if endEv == nil || endEv.Attempt != 2 || endEv.State != StateDone {
		t.Errorf("end event = %+v, want attempt 2 done", endEv)
	}
	if v := j.View(); v.Attempts != 2 {
		t.Errorf("view attempts = %d, want 2", v.Attempts)
	}
	if got := reg.Counter("service_retries_total").Value(); got != 1 {
		t.Errorf("retries counter = %d, want 1", got)
	}
	if got := reg.Counter("service_gaveup_total").Value(); got != 0 {
		t.Errorf("gaveup counter = %d, want 0", got)
	}
}

// TestRetryExhaustion: a job that fails every attempt consumes its whole
// retry budget, then lands in failed with the give-up accounted.
func TestRetryExhaustion(t *testing.T) {
	reg := obs.NewRegistry()
	r := newFlakyRunner(0, false) // never succeeds
	s := New(retryConfig(reg, r.run, 2))
	defer s.Shutdown(context.Background())

	j, err := s.Submit(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)

	<-r.mu
	n := len(r.attempts)
	r.mu <- struct{}{}
	if n != 3 {
		t.Errorf("runner executed %d attempts, want 3 (1 + 2 retries)", n)
	}
	if got := reg.Counter("service_retries_total").Value(); got != 2 {
		t.Errorf("retries counter = %d, want 2", got)
	}
	if got := reg.Counter("service_gaveup_total").Value(); got != 1 {
		t.Errorf("gaveup counter = %d, want 1", got)
	}
	if v := j.View(); v.Error == "" || v.Attempts != 3 {
		t.Errorf("view = %+v, want 3 attempts and an error", v)
	}
}

// TestCheckpointHandoff: a checkpoint saved by a failing attempt is handed
// back (as a decoupled clone) to the next attempt, and the latest
// checkpoint round is visible in the job view.
func TestCheckpointHandoff(t *testing.T) {
	r := newFlakyRunner(3, false)
	s := New(retryConfig(obs.NewRegistry(), r.run, 3))
	defer s.Shutdown(context.Background())

	j, _ := s.Submit(JobSpec{})
	waitState(t, j, StateDone)

	<-r.mu
	attempts := append([]Attempt(nil), r.attempts...)
	r.mu <- struct{}{}
	if len(attempts) != 3 {
		t.Fatalf("%d attempts, want 3", len(attempts))
	}
	if attempts[0].Checkpoint != nil {
		t.Error("first attempt received a checkpoint")
	}
	for i, wantRound := range []int{10, 20} {
		cp := attempts[i+1].Checkpoint
		if cp == nil || cp.Round != wantRound {
			t.Errorf("attempt %d checkpoint = %+v, want round %d", i+2, cp, wantRound)
		}
	}
	if v := j.View(); v.CheckpointRound != 20 {
		t.Errorf("view checkpoint round = %d, want 20", v.CheckpointRound)
	}
}

// TestPanicBecomesFailedJob: a panicking runner produces a failed job whose
// end event carries the panic stack; the scheduler survives, keeps
// accepting jobs, and no goroutines leak.
func TestPanicBecomesFailedJob(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	r := newFlakyRunner(0, true) // panics on every attempt
	s := New(retryConfig(reg, r.run, 1))

	j, err := s.Submit(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)

	events, _, _ := jobEvents(t, j, 0)
	end := events[len(events)-1]
	if end.Kind != "end" || end.State != StateFailed {
		t.Fatalf("last event = %+v, want a failed end", end)
	}
	if !strings.Contains(end.Stack, "flakyRunner") {
		t.Errorf("end event stack does not point at the panic site:\n%s", end.Stack)
	}
	if !strings.Contains(end.Err, "boom-2") {
		t.Errorf("end event error %q does not carry the panic value of the final attempt", end.Err)
	}
	if got := reg.Counter("service_panics_total").Value(); got != 2 {
		t.Errorf("panics counter = %d, want 2 (one per attempt)", got)
	}

	// The scheduler must still be alive and serving.
	jb, err := s.Submit(JobSpec{})
	if err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	waitState(t, jb, StateFailed) // same panicking runner, but it *ran*

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after panics: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelNotRetried: a cancelled job is never retried even with budget
// left — cancellation wins over the retry policy.
func TestCancelNotRetried(t *testing.T) {
	reg := obs.NewRegistry()
	r := newStubRunner()
	s := New(retryConfig(reg, r.run, 5))
	defer s.Shutdown(context.Background())

	j, _ := s.Submit(JobSpec{})
	waitStarted(t, r)
	if _, err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateCancelled)
	time.Sleep(10 * time.Millisecond) // a wrong retry would need the timer to fire
	if got := reg.Counter("service_retries_total").Value(); got != 0 {
		t.Errorf("cancelled job was retried %d times", got)
	}
	if st := j.State(); st != StateCancelled {
		t.Errorf("state after cancel = %q", st)
	}
}

// TestShutdownSweepsRetryWait: a job waiting out its retry backoff is
// finalized by Shutdown instead of being left queued forever.
func TestShutdownSweepsRetryWait(t *testing.T) {
	r := newFlakyRunner(0, false)
	cfg := retryConfig(obs.NewRegistry(), r.run, 8)
	cfg.RetryBackoff = time.Hour // the retry would fire long after the test
	cfg.RetryBackoffMax = time.Hour
	s := New(cfg)

	j, _ := s.Submit(JobSpec{})
	waitState(t, j, StateQueued) // submitted → running → failed attempt → queued for retry
	for {
		if v := j.View(); v.Attempts >= 1 && j.State() == StateQueued {
			break
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
	if st := j.State(); st != StateCancelled {
		t.Errorf("retry-waiting job drained into %q, want %q", st, StateCancelled)
	}
}

// TestSpecRetryFieldsValidation: the retry/fault spec fields are validated
// at admission.
func TestSpecRetryFieldsValidation(t *testing.T) {
	s := New(Config{QueueCap: 2, MaxInFlight: 1, Runner: newStubRunner().run})
	defer s.Shutdown(context.Background())
	for _, js := range []JobSpec{
		{MaxRetries: -1},
		{MaxRetries: 17},
		{CheckpointEvery: -1},
		{FaultPanicRate: 1.0},
		{FaultDropRate: -0.5},
		{FaultCrashRate: 2},
	} {
		if _, err := s.Submit(js); err == nil {
			t.Errorf("spec %+v admitted, want validation error", js)
		}
	}
}

// TestRunSpecInjectedPanicRecovers: the real runner under a 100%-ish panic
// plan fails with a *fault.PanicError unwrapping ErrInjected — through the
// service path this becomes a failed job rather than a dead process.
func TestRunSpecInjectedPanicRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{
		QueueCap:    2,
		MaxInFlight: 1,
		Metrics:     reg,
		Fault:       fault.Plan{Seed: 1, PanicRate: 0.9},
	})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(JobSpec{Family: FamilySinkless, N: 256, Margin: 0.9, Algorithm: AlgDist, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)
	events, _, _ := jobEvents(t, j, 0)
	end := events[len(events)-1]
	if end.Stack == "" {
		t.Error("injected panic left no stack in the end event")
	}
	if !strings.Contains(end.Err, "injected") {
		t.Errorf("end error %q does not name the injected fault", end.Err)
	}
	if got := reg.Counter("service_panics_total").Value(); got == 0 {
		t.Error("panics counter stayed 0")
	}
}

// TestRunSpecCheckpointResumeRealRunner: the real mtseq runner checkpoints
// through SaveCheckpoint and a second attempt resumes from it, reproducing
// the uninterrupted result.
func TestRunSpecCheckpointResumeRealRunner(t *testing.T) {
	spec := JobSpec{Family: FamilySinkless, N: 64, Algorithm: AlgMTSeq, Seed: 2, CheckpointEvery: 2}
	var sink atomic.Pointer[fault.Checkpoint]
	save := func(cp *fault.Checkpoint) { sink.Store(cp) }

	base, err := RunSpec(context.Background(), spec, Attempt{Number: 1, SaveCheckpoint: save}, func(Event) {}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cp := sink.Load()
	if cp == nil {
		t.Skip("run finished before the first checkpoint")
	}
	resumed, err := RunSpec(context.Background(), spec, Attempt{Number: 2, Checkpoint: cp, SaveCheckpoint: save}, func(Event) {}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Satisfied != resumed.Satisfied || base.Resamplings != resumed.Resamplings {
		t.Errorf("resumed summary (sat=%v res=%d) differs from baseline (sat=%v res=%d)",
			resumed.Satisfied, resumed.Resamplings, base.Satisfied, base.Resamplings)
	}
}
