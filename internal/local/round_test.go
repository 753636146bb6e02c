package local

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/prng"
)

// boxed is a message boxed once, so sending it allocates nothing.
var boxed Message = uint64(1)

// quietMachine sends the pre-boxed message on every port from a send
// slice it reuses, and halts after rounds rounds: its Round allocates
// nothing, so whatever a run allocates per round is the runtime's.
type quietMachine struct {
	send   []Message
	rounds int
}

func (m *quietMachine) Init(info NodeInfo) {
	m.send = make([]Message, info.Degree())
	for i := range m.send {
		m.send[i] = boxed
	}
}

func (m *quietMachine) Round(round int, _ []Message) ([]Message, bool) {
	return m.send, round >= m.rounds
}

// runtimeAllocsPerRound returns the allocations per round that Run itself
// makes on g: the difference between a long and a short run of quiet
// machines, over the difference in rounds, so that the per-run set-up
// (machines, IDs, neighbour tables) cancels out.
func runtimeAllocsPerRound(t *testing.T, g *graph.Graph, workers int) float64 {
	t.Helper()
	const short, long = 4, 36
	run := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			stats, err := Run(g, func(int) Machine { return &quietMachine{rounds: rounds} }, Options{Workers: workers})
			if err != nil || stats.Rounds != rounds {
				t.Fatalf("run: %d rounds, %v", stats.Rounds, err)
			}
		})
	}
	return (run(long) - run(short)) / (long - short)
}

// TestRuntimeAllocsPerRoundIndependentOfN pins that a LOCAL round costs
// the runtime O(1) allocations on each side of the inline cutoff: the
// count per round is the same on a cycle of 64 nodes and the largest cycle
// below the cutoff, and the same on the smallest cycle above it and one of
// 16384 nodes, at Workers 1 and 2. Copying any per-node table in a round
// (one neighbour list per node, say) makes the larger cycle of either pair
// allocate over 1300 more per round. The two pairs run on different paths
// at Workers 2, so they are compared within each pair: inline, a round
// allocates nothing; on the pool, it is one pass and allocates the
// engine's one job record, so a second engine job per round (2
// allocations) fails the bound.
func TestRuntimeAllocsPerRoundIndependentOfN(t *testing.T) {
	pairs := []struct {
		side         string
		small, large *graph.Graph
	}{
		{"below", graph.Cycle(64), cycleBelowCutoff()},
		{"above", cycleAboveCutoff(), graph.Cycle(16384)},
	}
	for _, p := range pairs {
		for _, workers := range []int{1, 2} {
			small := runtimeAllocsPerRound(t, p.small, workers)
			large := runtimeAllocsPerRound(t, p.large, workers)
			t.Logf("%s cutoff, workers=%d: %.2f allocs/round at n=%d, %.2f at n=%d",
				p.side, workers, small, p.small.N(), large, p.large.N())
			if large-small > 1 || small-large > 1 {
				t.Errorf("%s cutoff, workers=%d: %.2f allocs/round at n=%d vs %.2f at n=%d, want equal within 1",
					p.side, workers, large, p.large.N(), small, p.small.N())
			}
			if large > 1.5 {
				t.Errorf("%s cutoff, workers=%d: %.2f allocs/round, want at most 1.5", p.side, workers, large)
			}
		}
	}
}

// addressedMachine sends, on every port i, the pair (own ID,
// NeighborIDs[i]) in round 1 and checks in round 2 that inbox slot i holds
// (NeighborIDs[i], own ID): the message came from the neighbour port i
// names, on the port under which that neighbour sees this node.
type addressedMachine struct {
	info NodeInfo
	bad  *int
}

func (m *addressedMachine) Init(info NodeInfo) { m.info = info }

func (m *addressedMachine) Round(round int, recv []Message) ([]Message, bool) {
	if round == 2 {
		for i, msg := range recv {
			if msg != [2]uint64{m.info.NeighborIDs[i], m.info.ID} {
				*m.bad++
			}
		}
		return nil, true
	}
	send := make([]Message, m.info.Degree())
	for i, id := range m.info.NeighborIDs {
		send[i] = [2]uint64{m.info.ID, id}
	}
	return send, false
}

// TestPortsMatchNeighborIDs pins the delivery tables on irregular graphs,
// one below the inline cutoff and one above it, so that Workers 2 delivers
// inline on the first and in pool shards on the second: every inbox slot
// is filled by the neighbour its port names.
func TestPortsMatchNeighborIDs(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.RandomBoundedDegree(200, 500, 9, prng.New(5)),
		graph.RandomBoundedDegree(1000, 2500, 9, prng.New(5)),
	} {
		for _, workers := range []int{1, 2} {
			bad := make([]int, g.N())
			_, err := Run(g, func(v int) Machine { return &addressedMachine{bad: &bad[v]} }, Options{IDSeed: 11, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for v, b := range bad {
				if b != 0 {
					t.Fatalf("n=%d, workers=%d: node %d got %d misaddressed messages", g.N(), workers, v, b)
				}
			}
		}
	}
}
