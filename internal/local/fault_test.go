package local

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/prng"
)

// runFlood executes flood machines for rounds rounds (0: g.N() rounds) on
// g under the given injector and returns the run stats, the per-round
// stream and the min value each node learned.
func runFlood(t *testing.T, g *graph.Graph, rounds, workers int, inj *fault.Injector) (Stats, []engine.RoundStats, []uint64) {
	t.Helper()
	machines := make([]*floodMachine, g.N())
	var stream []engine.RoundStats
	stats, err := Run(g, func(v int) Machine {
		machines[v] = &floodMachine{rounds: rounds}
		return machines[v]
	}, Options{IDSeed: 7, Workers: workers, Fault: inj, OnRound: func(rs engine.RoundStats) { stream = append(stream, rs) }})
	if err != nil {
		t.Fatal(err)
	}
	mins := make([]uint64, len(machines))
	for v, m := range machines {
		mins[v] = m.min
	}
	return stats, stream, mins
}

// regularAboveCutoff is a random 3-regular graph whose round work, 4n =
// 4400, is above inlineWork, so Workers 2 and 4 shard it on the pool.
func regularAboveCutoff(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.RandomRegular(1100, 3, prng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestChaosCountersFire checks drop and crash injection actually bite: a
// lossy run reports nonzero MessagesDropped / CrashSteps while a clean run
// reports zero for both.
func TestChaosCountersFire(t *testing.T) {
	g := graph.Cycle(16)
	clean, _, _ := runFlood(t, g, 0, 1, nil)
	if clean.MessagesDropped != 0 || clean.CrashSteps != 0 {
		t.Fatalf("clean run reports damage: %+v", clean)
	}
	lossy, _, _ := runFlood(t, g, 0, 1, fault.NewInjector(fault.Plan{Seed: 3, DropRate: 0.2, CrashRate: 0.1}))
	if lossy.MessagesDropped == 0 {
		t.Error("20% drop rate dropped nothing")
	}
	if lossy.CrashSteps == 0 {
		t.Error("10% crash rate crashed nothing")
	}
	if lossy.MessagesSent >= clean.MessagesSent {
		t.Errorf("dropped+crashed run sent %d messages, clean run %d — drops not excluded",
			lossy.MessagesSent, clean.MessagesSent)
	}
}

// TestChaosWorkerIndependence checks the determinism contract under
// injection: drop and crash decisions are keyed by (round, node[, port]),
// so the damage pattern — and therefore every machine's final state and
// the per-round stream — is bit-identical for every worker count. The
// 16-cycle runs inline at every Workers value; the cycle and the 3-regular
// graph above the cutoff decide drops and crashes in pool shards at
// Workers 2 and 4.
func TestChaosWorkerIndependence(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 11, DropRate: 0.15, CrashRate: 0.05})
	for _, g := range []*graph.Graph{graph.Cycle(16), cycleAboveCutoff(), regularAboveCutoff(t)} {
		baseStats, baseStream, baseMins := runFlood(t, g, 16, 1, inj)
		for _, workers := range []int{2, 4} {
			stats, stream, mins := runFlood(t, g, 16, workers, inj)
			if stats != baseStats {
				t.Errorf("n=%d, workers=%d: stats %+v differ from workers=1 %+v", g.N(), workers, stats, baseStats)
			}
			if !slices.Equal(stream, baseStream) {
				t.Errorf("n=%d, workers=%d: per-round stream differs from workers=1", g.N(), workers)
			}
			for v := range mins {
				if mins[v] != baseMins[v] {
					t.Errorf("n=%d, workers=%d: node %d state %d, want %d", g.N(), workers, v, mins[v], baseMins[v])
				}
			}
		}
	}
}

// TestChaosPinnedStream pins one seeded drop+crash run, on the 3-regular
// graph above the cutoff at Workers 1, 2 and 4, to the Stats and per-round
// stream that the two-phase runtime (compute, then a delivery phase that
// dropped at the receiver) produced. A drop is decided at the sender but
// keyed by the receiver's (round, node, slot), and a crash by (round,
// node); keying either differently changes these counts.
func TestChaosPinnedStream(t *testing.T) {
	wantStats := Stats{Rounds: 8, MessagesSent: 16218, Steps: 6358, MessagesDropped: 2856, CrashSteps: 297}
	wantStream := []engine.RoundStats{
		{Round: 1, Steps: 1042, Messages: 2661, Active: 1100, Halted: 0, Dropped: 465, Crashed: 58},
		{Round: 2, Steps: 1057, Messages: 2678, Active: 1100, Halted: 0, Dropped: 493, Crashed: 43},
		{Round: 3, Steps: 1049, Messages: 2687, Active: 1100, Halted: 0, Dropped: 460, Crashed: 51},
		{Round: 4, Steps: 1052, Messages: 2699, Active: 1100, Halted: 0, Dropped: 457, Crashed: 48},
		{Round: 5, Steps: 1058, Messages: 2669, Active: 1100, Halted: 0, Dropped: 505, Crashed: 42},
		{Round: 6, Steps: 1051, Messages: 2702, Active: 49, Halted: 1051, Dropped: 451, Crashed: 49},
		{Round: 7, Steps: 43, Messages: 107, Active: 6, Halted: 43, Dropped: 22, Crashed: 6},
		{Round: 8, Steps: 6, Messages: 15, Active: 0, Halted: 6, Dropped: 3, Crashed: 0},
	}
	g := regularAboveCutoff(t)
	inj := fault.NewInjector(fault.Plan{Seed: 11, DropRate: 0.15, CrashRate: 0.05})
	for _, workers := range []int{1, 2, 4} {
		stats, stream, _ := runFlood(t, g, 6, workers, inj)
		if stats != wantStats {
			t.Errorf("workers=%d: stats %+v, want %+v", workers, stats, wantStats)
		}
		if !slices.Equal(stream, wantStream) {
			t.Errorf("workers=%d: per-round stream\n%+v\nwant\n%+v", workers, stream, wantStream)
		}
	}
}

// TestChaosTerminatesDespiteDamage checks the termination-or-loud-failure
// guarantee: flooding under heavy loss still halts (its halting rule is
// damage-independent) and the runtime reports the full damage tally rather
// than hanging or silently absorbing it.
func TestChaosTerminatesDespiteDamage(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 5, DropRate: 0.5, CrashRate: 0.3})
	stats, _, _ := runFlood(t, graph.Cycle(16), 0, 4, inj)
	if stats.Rounds == 0 {
		t.Fatal("run reported zero rounds")
	}
	if stats.MessagesDropped == 0 || stats.CrashSteps == 0 {
		t.Fatalf("heavy chaos left no trace: %+v", stats)
	}
}

// runPanicking runs newMachine on g and returns the value Run panicked
// with, or nil if it returned.
func runPanicking(g *graph.Graph, newMachine func(int) Machine, opts Options) (recovered any) {
	defer func() { recovered = recover() }()
	Run(g, newMachine, opts)
	return nil
}

// TestPanicInjection checks the loud-failure side: a panic-rate injector
// makes a round's pass panic with a *fault.PanicError that unwraps to
// ErrInjected, on both sides of the inline cutoff and at Workers 1 and 4,
// so inline rounds raise it as the pool does.
func TestPanicInjection(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 1, PanicRate: 0.9})
	for _, side := range cutoffSides() {
		for _, workers := range []int{1, 4} {
			recovered := runPanicking(side.g, func(int) Machine { return &floodMachine{} },
				Options{IDSeed: 1, Workers: workers, Fault: inj})
			if recovered == nil {
				t.Fatalf("%s cutoff, workers=%d: panic injection at rate 0.9 never panicked", side.name, workers)
			}
			pe, ok := recovered.(*fault.PanicError)
			if !ok {
				t.Fatalf("%s cutoff, workers=%d: recovered %T, want *fault.PanicError", side.name, workers, recovered)
			}
			if !errors.Is(pe, fault.ErrInjected) {
				t.Errorf("%s cutoff, workers=%d: injected panic does not unwrap to ErrInjected: %v", side.name, workers, pe)
			}
		}
	}
}

// panicMachine panics in round 2 on the node with the given ID.
type panicMachine struct {
	id, victim uint64
}

func (m *panicMachine) Init(info NodeInfo) { m.id = info.ID }

func (m *panicMachine) Round(round int, _ []Message) ([]Message, bool) {
	if round == 2 && m.id == m.victim {
		panic(errOrganic)
	}
	return nil, round >= 3
}

var errOrganic = errors.New("organic machine panic")

// TestMachinePanicCarriesStack checks that a machine's own panic leaves Run
// as a *fault.PanicError holding the original value and the stack of the
// panic site, on both sides of the inline cutoff and at Workers 1 and 4.
func TestMachinePanicCarriesStack(t *testing.T) {
	for _, side := range cutoffSides() {
		for _, workers := range []int{1, 4} {
			victim := uint64(side.g.N() / 2)
			recovered := runPanicking(side.g, func(int) Machine { return &panicMachine{victim: victim} },
				Options{SequentialIDs: true, Workers: workers})
			pe, ok := recovered.(*fault.PanicError)
			if !ok {
				t.Fatalf("%s cutoff, workers=%d: recovered %T (%v), want *fault.PanicError", side.name, workers, recovered, recovered)
			}
			if pe.Value != errOrganic {
				t.Errorf("%s cutoff, workers=%d: Value = %v, want the machine's panic value", side.name, workers, pe.Value)
			}
			if !strings.Contains(string(pe.Stack), "(*panicMachine).Round") {
				t.Errorf("%s cutoff, workers=%d: stack does not reach the panic site:\n%s", side.name, workers, pe.Stack)
			}
		}
	}
}
