package local

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
)

// cycleBelowCutoff and cycleAboveCutoff are the cycles nearest to
// inlineWork on either side of it: a cycle's round is n steps plus 2n
// inbox slots, so Run keeps the first inline and shards the second on the
// pool (for any Workers but 1).
func cycleBelowCutoff() *graph.Graph { return graph.Cycle((inlineWork - 1) / 3) }
func cycleAboveCutoff() *graph.Graph { return graph.Cycle((inlineWork + 2) / 3) }

// cutoffSide names one side of the inline cutoff and the cycle nearest to
// it there.
type cutoffSide struct {
	name string
	g    *graph.Graph
}

func cutoffSides() []cutoffSide {
	return []cutoffSide{{"below", cycleBelowCutoff()}, {"above", cycleAboveCutoff()}}
}

// completeAtCutoff is the smallest complete graph whose round work, k
// steps plus k(k-1) inbox slots, reaches inlineWork.
func completeAtCutoff() *graph.Graph {
	k := 1
	for k*k < inlineWork {
		k++
	}
	return graph.Complete(k)
}

// roundWork is the work Run sizes its path by: n steps plus one inbox slot
// per port.
func roundWork(g *graph.Graph) int {
	work := g.N()
	for v := 0; v < g.N(); v++ {
		work += g.Degree(v)
	}
	return work
}

// tracedRun runs quiet machines for rounds rounds on g and returns the
// run's trace events.
func tracedRun(t *testing.T, g *graph.Graph, workers, rounds int) []obs.Event {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	if _, err := Run(g, func(int) Machine { return &quietMachine{rounds: rounds} }, Options{Workers: workers, Trace: rec}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	var events []obs.Event
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var e obs.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
	return events
}

// TestRunPathFollowsCutoff pins the path choice and the one-pass round:
// below the cutoff a run hands the engine nothing, whatever Workers allows
// (one shard per round, run by the caller, none stolen, and the run
// reports 1 worker); at or above it, every round is one pass split into
// more than one shard on the pool.
func TestRunPathFollowsCutoff(t *testing.T) {
	const rounds = 5
	for _, side := range []struct {
		name  string
		g     *graph.Graph
		below bool
	}{
		{"below", graph.Cycle(64), true},
		{"below", cycleBelowCutoff(), true},
		{"above", cycleAboveCutoff(), false},
		{"above", completeAtCutoff(), false},
	} {
		if work := roundWork(side.g); (work < inlineWork) != side.below {
			t.Fatalf("n=%d: round work %d is not %s the cutoff %d", side.g.N(), work, side.name, inlineWork)
		}
		for _, workers := range []int{0, 2, 4} {
			if workers == 0 && engine.Shared().Workers() == 1 {
				continue // a 1-worker shared pool runs inline on either side
			}
			name := fmt.Sprintf("%s cutoff, n=%d, workers=%d", side.name, side.g.N(), workers)
			seen := 0
			for _, e := range tracedRun(t, side.g, workers, rounds) {
				switch e.Kind {
				case "run_start":
					if side.below && e.Workers != 1 {
						t.Errorf("%s: run reports %d workers, want 1 (inline)", name, e.Workers)
					}
				case "round":
					seen++
					if side.below && (e.Shards != 1 || e.Stolen != 0) {
						t.Errorf("%s: round %d ran %d shards (%d stolen), want one on the caller", name, e.Round, e.Shards, e.Stolen)
					}
					if !side.below && e.Shards <= 1 {
						t.Errorf("%s: round %d ran %d shards, want more than one", name, e.Round, e.Shards)
					}
				}
			}
			if seen != rounds {
				t.Fatalf("%s: traced %d rounds, want %d", name, seen, rounds)
			}
		}
	}
}

// BenchmarkLocalCutoff times rounds on the cycles just below and just
// above inlineWork, with quiet machines (the runtime's own cost) and
// flooding ones, which allocate a send slice per round like most machines
// in the repository. Each runs at Workers 1, always inline, and at the
// default Workers 0, which is inline below the cutoff and on the shared
// pool above it. ns/work is the time per unit of round work (steps plus
// inbox slots), so rows compare across the two sizes. The shared pool
// takes its size from GOMAXPROCS once per process, so give -cpu 1 and
// -cpu 2 separate runs:
//
//	go test -run NONE -bench LocalCutoff -cpu 1 ./internal/local
//	go test -run NONE -bench LocalCutoff -cpu 2 ./internal/local
//
// At -cpu 2, the two "above" rows of a machine compare inline with the
// 2-worker pool right at the cutoff, at the same GOMAXPROCS. To re-derive
// the constant, move it and rerun; keep it where the pool stops losing.
func BenchmarkLocalCutoff(b *testing.B) {
	const rounds = 64
	machines := []struct {
		name string
		new  func() Machine
	}{
		{"quiet", func() Machine { return &quietMachine{rounds: rounds} }},
		{"flood", func() Machine { return &floodMachine{rounds: rounds} }},
	}
	for _, side := range cutoffSides() {
		for _, m := range machines {
			for _, workers := range []int{1, 0} {
				b.Run(fmt.Sprintf("%s/%s/workers=%d", side.name, m.name, workers), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := Run(side.g, func(int) Machine { return m.new() }, Options{Workers: workers}); err != nil {
							b.Fatal(err)
						}
					}
					work := float64(b.N) * rounds * float64(roundWork(side.g))
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/work, "ns/work")
				})
			}
		}
	}
}
