package local

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
)

// spinMachine never halts and sends nothing: a pure compute load for
// cancellation tests, where the run can only end through Ctx or MaxRounds.
type spinMachine struct{}

func (m *spinMachine) Init(NodeInfo) {}

func (m *spinMachine) Round(int, []Message) ([]Message, bool) { return nil, false }

// TestRunCtxCancelMidRound cancels a large run from inside its OnRound
// observer and demands that the runtime stops before the next round: the
// cancel fires after round 50's pass, so exactly 50 rounds of
// stats must be reported, and the error must expose context.Canceled.
func TestRunCtxCancelMidRound(t *testing.T) {
	const nodes, cancelAt = 50_000, 50
	g := graph.Cycle(nodes)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stats, err := Run(g, func(int) Machine { return &spinMachine{} }, Options{
		Ctx: ctx,
		OnRound: func(rs engine.RoundStats) {
			if rs.Round == cancelAt {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Rounds != cancelAt {
		t.Errorf("Rounds = %d, want exactly %d (cancellation must be observed within one round)", stats.Rounds, cancelAt)
	}
	if want := cancelAt * nodes; stats.Steps != want {
		t.Errorf("Steps = %d, want %d", stats.Steps, want)
	}
}

// TestRunCtxAlreadyCancelled: a context that is done before the run starts
// stops it before the first round, with zero partial stats.
func TestRunCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := Run(graph.Cycle(64), func(int) Machine { return &spinMachine{} }, Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats != (Stats{}) {
		t.Errorf("stats = %+v, want zero", stats)
	}
}

// TestRunCtxDeadline: a deadline context surfaces context.DeadlineExceeded
// through the same path.
func TestRunCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	_, err := Run(graph.Cycle(64), func(int) Machine { return &spinMachine{} }, Options{Ctx: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunCtxCancelLeaksNoGoroutines is the stdlib goleak check: cancelled
// runs — on the shared pool and on transient per-run pools — must leave the
// process goroutine count where it was. The shared pool's persistent
// workers are warmed up before the baseline is taken so they do not read as
// leaks.
func TestRunCtxCancelLeaksNoGoroutines(t *testing.T) {
	warm := graph.Cycle(256)
	if _, err := Run(warm, func(int) Machine { return &spinMachine{} }, Options{MaxRounds: 2}); !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("warm-up run: %v", err)
	}
	runtime.GC()
	before := runtime.NumGoroutine()

	g := graph.Cycle(20_000)
	for _, workers := range []int{0, 1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := Run(g, func(int) Machine { return &spinMachine{} }, Options{
			Ctx:     ctx,
			Workers: workers,
			OnRound: func(rs engine.RoundStats) {
				if rs.Round == 5 {
					cancel()
				}
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancelled runs: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
