package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/local"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/prng"
)

// assertSameDistResult fails unless got and want agree on everything a
// caller can observe: the assignment, the round counts, the message count,
// the violated events and the LOCAL runtime's stats.
func assertSameDistResult(t *testing.T, name string, got, want *DistResult) {
	t.Helper()
	gv, _ := got.Assignment.Values()
	wv, _ := want.Assignment.Values()
	if !slices.Equal(gv, wv) {
		t.Errorf("%s: assignments differ", name)
	}
	type counts struct {
		coloring, fixing, total, classes, messages, violated int
		stats                                                local.Stats
	}
	g := counts{got.ColoringRounds, got.FixingRounds, got.TotalRounds, got.Classes, got.Messages, got.ViolatedEvents, got.LocalStats}
	w := counts{want.ColoringRounds, want.FixingRounds, want.TotalRounds, want.Classes, want.Messages, want.ViolatedEvents, want.LocalStats}
	if g != w {
		t.Errorf("%s: counts differ: delta relay %+v, flooding %+v", name, g, w)
	}
}

type diffCase struct {
	name string
	inst *model.Instance
	rank int // 2: run FixDistributed2 and FixDistributed3; 3: FixDistributed3 only
}

func hyperCase(t *testing.T, n, deg int, seed uint64) diffCase {
	t.Helper()
	h, err := hypergraph.RandomRegularRank3(n, deg, prng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	s, err := apps.NewHyperSinkless(h, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	return diffCase{fmt.Sprintf("hyper(n=%d,deg=%d)", n, deg), s.Instance, 3}
}

func sinklessCase(t *testing.T, n, d int, seed uint64) diffCase {
	t.Helper()
	g, err := graph.RandomRegular(n, d, prng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	s, err := apps.NewSinkless(g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return diffCase{fmt.Sprintf("sinkless(n=%d,d=%d)", n, d), s.Instance, 2}
}

// TestDeltaRelayMatchesFlooding is the differential oracle of the
// distributed fixers: over rank-3 hyper-sinkless and rank-2 sinkless
// instances, every strategy and Workers 1 and 2, the delta-relay machines
// must return exactly the DistResult of the flooding reference.
func TestDeltaRelayMatchesFlooding(t *testing.T) {
	cases := []diffCase{
		hyperCase(t, 12, 3, 1),
		hyperCase(t, 24, 2, 2),
		hyperCase(t, 36, 3, 3),
		hyperCase(t, 48, 2, 8),
		sinklessCase(t, 16, 3, 4),
		sinklessCase(t, 32, 4, 5),
		sinklessCase(t, 48, 3, 6),
		// Two variables on every edge: an actor writes each φ key twice.
		{"multi-var cycle", multiVarEdgeInstance(t, 8), 2},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, strat := range []Strategy{StrategyMinScore, StrategyFirst, StrategyAdversarial} {
				for _, workers := range []int{1, 2} {
					lopts := local.Options{IDSeed: uint64(10*i) + uint64(strat), Workers: workers}
					for rank := c.rank; rank <= 3; rank++ {
						assertMatchesFlooding(t, c.inst, rank, Options{Strategy: strat}, lopts)
					}
				}
			}
		})
	}
	// One case at the size of the benchmark's dist-cold jobs.
	c := hyperCase(t, 72, 3, 7)
	t.Run(c.name, func(t *testing.T) {
		assertMatchesFlooding(t, c.inst, 3, Options{}, local.Options{IDSeed: 72, Workers: 2})
	})
	// Every case above runs inline in internal/local at any Workers: a
	// round's work, n steps plus the sum of the degrees, stays below its
	// cutoff of 4096. This one reaches it (1366 + 2·1366), so at Workers 2
	// the colouring and fixer machines run concurrently on the engine
	// pool, and the result must match both the flooding reference and the
	// inline Workers 1 run.
	c = sinklessCase(t, 1366, 2, 9)
	t.Run(c.name, func(t *testing.T) {
		for rank := c.rank; rank <= 3; rank++ {
			inlineReg := obs.NewRegistry()
			inline := assertMatchesFlooding(t, c.inst, rank, Options{}, local.Options{IDSeed: 1366, Workers: 1, Metrics: inlineReg})
			reg := obs.NewRegistry()
			pooled := assertMatchesFlooding(t, c.inst, rank, Options{}, local.Options{IDSeed: 1366, Workers: 2, Metrics: reg})
			assertSameDistResult(t, fmt.Sprintf("FixDistributed%d/workers=2 vs 1", rank), pooled, inline)
			// An inline round is one shard; the pool splits a round of this
			// size into many more (16).
			if shards, rounds := inlineReg.Counter("engine_shards_total").Value(), inlineReg.Counter("local_rounds_total").Value(); rounds == 0 || shards != rounds {
				t.Fatalf("FixDistributed%d at Workers 1: %d shards in %d rounds, want one shard per round", rank, shards, rounds)
			}
			if shards, rounds := reg.Counter("engine_shards_total").Value(), reg.Counter("local_rounds_total").Value(); shards <= 2*rounds {
				t.Fatalf("FixDistributed%d at Workers 2: %d shards in %d rounds, so the rounds ran inline, not on the pool", rank, shards, rounds)
			}
		}
	})
}

// assertMatchesFlooding runs FixDistributed2 (rank 2) or FixDistributed3
// (rank 3) and the flooding reference, compares their results and returns
// the fixer's.
func assertMatchesFlooding(t *testing.T, inst *model.Instance, rank int, opts Options, lopts local.Options) *DistResult {
	t.Helper()
	name := fmt.Sprintf("FixDistributed%d/strategy=%d/workers=%d", rank, opts.Strategy, lopts.Workers)
	fix := FixDistributed3
	if rank == 2 {
		fix = FixDistributed2
	}
	got, err := fix(inst, opts, lopts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := floodFixDistributed(inst, rank, opts, lopts)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	assertSameDistResult(t, name, got, want)
	return got
}

// msgProbe wraps a fixer machine and records the largest message it sends,
// counted in fixings plus φ entries.
type msgProbe struct {
	local.Machine
	largest int
}

func (p *msgProbe) Round(round int, recv []local.Message) ([]local.Message, bool) {
	send, done := p.Machine.Round(round, recv)
	if len(send) > 0 {
		size := 0
		switch m := send[0].(type) {
		case *fixMsg:
			size = len(m.own.fixings) + len(m.own.phi) + len(m.relay.fixings) + len(m.relay.phi)
		case *stateMsg:
			size = len(m.fixings) + len(m.phi)
		}
		p.largest = max(p.largest, size)
	}
	return send, done
}

// largestFixerMessage runs Corollary 1.4 on inst, with the delta-relay or
// the flooding machines, and returns the largest message any node sent.
func largestFixerMessage(t *testing.T, inst *model.Instance, flood bool) int {
	t.Helper()
	g := inst.DependencyGraph()
	d2, err := coloring.DistributedDistance2Native(g, local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{}.withDefaults()
	orc := newOracle(inst)
	probes := make([]*msgProbe, g.N())
	_, err = local.Run(g, func(v int) local.Machine {
		var m local.Machine = &lllMachine{inst: inst, orc: orc, me: v, opts: opts,
			mode: modeNodeClasses, numClasses: d2.Palette, myClass: d2.Colors[v]}
		if flood {
			m = &floodMachine{inst: inst, orc: orc, me: v, opts: opts,
				mode: modeNodeClasses, numClasses: d2.Palette, myClass: d2.Colors[v]}
		}
		probes[v] = &msgProbe{Machine: m}
		return probes[v]
	}, local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	largest := 0
	for _, p := range probes {
		largest = max(largest, p.largest)
	}
	return largest
}

// raceEnabled is set when the tests run under the race detector
// (race_test.go).
var raceEnabled bool

// TestFixerMessagesLocalInCost pins that Corollary 1.4's messages are local
// in cost: a node sends the entries it produced (at most s fixings and 6s
// φ entries for a scope of s variables) plus those its at most d
// neighbours produced, so no message exceeds 7·s·(d+1) entries, whatever
// n is. The flooding reference, whose messages carry every fixing in the
// graph, breaks the bound already at n = 72.
func TestFixerMessagesLocalInCost(t *testing.T) {
	sizes := []int{72, 576, 4096}
	if raceEnabled {
		// Every node keeps a dense view of all n variables: ~150 MB at
		// n = 4096, several times that under the race detector. The
		// smaller sizes run the same code.
		sizes = sizes[:2]
	}
	bound := func(inst *model.Instance) int {
		s := 0
		for e := 0; e < inst.NumEvents(); e++ {
			s = max(s, len(inst.Event(e).Scope))
		}
		return 7 * s * (inst.D() + 1)
	}
	var first int
	for i, n := range sizes {
		inst := hyperCase(t, n, 3, uint64(n)).inst
		b := bound(inst)
		if i == 0 {
			first = b
			if got := largestFixerMessage(t, inst, true); got <= b {
				t.Fatalf("n=%d: flooding's largest message %d is within the bound %d; the test cannot tell the transports apart", n, got, b)
			}
		} else if b != first {
			t.Fatalf("n=%d: bound %d differs from %d at n=72: d or the scope grew", n, b, first)
		}
		if got := largestFixerMessage(t, inst, false); got > b {
			t.Errorf("n=%d: largest fixer message has %d entries, above the local bound 7·s·(d+1) = %d", n, got, b)
		}
	}
}
