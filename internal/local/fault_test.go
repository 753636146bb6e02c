package local

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

// runFlood executes the flood machine on a cycle under the given injector
// and returns the run stats plus the min value each node learned.
func runFlood(t *testing.T, workers int, inj *fault.Injector) (Stats, []uint64) {
	t.Helper()
	g := graph.Cycle(16)
	machines := make([]*floodMachine, g.N())
	stats, err := Run(g, func(v int) Machine {
		machines[v] = &floodMachine{}
		return machines[v]
	}, Options{IDSeed: 7, Workers: workers, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	mins := make([]uint64, len(machines))
	for v, m := range machines {
		mins[v] = m.min
	}
	return stats, mins
}

// TestChaosCountersFire checks drop and crash injection actually bite: a
// lossy run reports nonzero MessagesDropped / CrashSteps while a clean run
// reports zero for both.
func TestChaosCountersFire(t *testing.T) {
	clean, _ := runFlood(t, 1, nil)
	if clean.MessagesDropped != 0 || clean.CrashSteps != 0 {
		t.Fatalf("clean run reports damage: %+v", clean)
	}
	lossy, _ := runFlood(t, 1, fault.NewInjector(fault.Plan{Seed: 3, DropRate: 0.2, CrashRate: 0.1}))
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
// so the damage pattern — and therefore every machine's final state — is
// bit-identical for every worker count.
func TestChaosWorkerIndependence(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 11, DropRate: 0.15, CrashRate: 0.05})
	baseStats, baseMins := runFlood(t, 1, inj)
	for _, workers := range []int{2, 4} {
		stats, mins := runFlood(t, workers, inj)
		if stats != baseStats {
			t.Errorf("workers=%d: stats %+v differ from workers=1 %+v", workers, stats, baseStats)
		}
		for v := range mins {
			if mins[v] != baseMins[v] {
				t.Errorf("workers=%d: node %d state %d, want %d", workers, v, mins[v], baseMins[v])
			}
		}
	}
}

// TestChaosTerminatesDespiteDamage checks the termination-or-loud-failure
// guarantee: flooding under heavy loss still halts (its halting rule is
// damage-independent) and the runtime reports the full damage tally rather
// than hanging or silently absorbing it.
func TestChaosTerminatesDespiteDamage(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 5, DropRate: 0.5, CrashRate: 0.3})
	stats, _ := runFlood(t, 4, inj)
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
// makes the compute phase panic with a *fault.PanicError that unwraps to
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
