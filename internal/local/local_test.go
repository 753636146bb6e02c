package local

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
)

// floodMachine learns the minimum ID in the graph by flooding; every node
// halts after diameter+1 rounds (computed pessimistically as N rounds), or
// after rounds rounds when that is set.
type floodMachine struct {
	info   NodeInfo
	min    uint64
	rounds int
}

func (m *floodMachine) Init(info NodeInfo) {
	m.info = info
	m.min = info.ID
}

func (m *floodMachine) Round(round int, recv []Message) ([]Message, bool) {
	for _, msg := range recv {
		if msg == nil {
			continue
		}
		if v, ok := msg.(uint64); ok && v < m.min {
			m.min = v
		}
	}
	send := make([]Message, m.info.Degree())
	for i := range send {
		send[i] = m.min
	}
	if m.rounds > 0 {
		return send, round >= m.rounds
	}
	return send, round >= m.info.N
}

func TestFloodFindsMinimum(t *testing.T) {
	g := graph.Cycle(9)
	machines := make([]*floodMachine, g.N())
	stats, err := Run(g, func(v int) Machine {
		machines[v] = &floodMachine{}
		return machines[v]
	}, Options{IDSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != g.N() {
		t.Fatalf("rounds = %d, want %d", stats.Rounds, g.N())
	}
	want := machines[0].min
	for _, m := range machines {
		if m.info.ID < want {
			want = m.info.ID
		}
	}
	for v, m := range machines {
		if m.min != want {
			t.Fatalf("node %d learned min %d, want %d", v, m.min, want)
		}
	}
}

// bfsMachine computes distance from the node with the (known) source ID.
type bfsMachine struct {
	info     NodeInfo
	sourceID uint64
	dist     int
}

func (m *bfsMachine) Init(info NodeInfo) {
	m.info = info
	if info.ID == m.sourceID {
		m.dist = 0
	} else {
		m.dist = -1
	}
}

func (m *bfsMachine) Round(round int, recv []Message) ([]Message, bool) {
	if m.dist < 0 {
		for _, msg := range recv {
			if msg == nil {
				continue
			}
			if d, ok := msg.(int); ok {
				m.dist = d + 1
				break
			}
		}
	}
	send := make([]Message, m.info.Degree())
	// Announce own distance exactly once, in the round after learning it.
	if m.dist >= 0 && round == m.dist+1 {
		for i := range send {
			send[i] = m.dist
		}
	}
	return send, round >= m.info.N
}

func TestBFSDistances(t *testing.T) {
	g := graph.Grid(4, 5)
	var sourceID uint64
	// First construct to capture the ID of node 0: use sequential IDs.
	machines := make([]*bfsMachine, g.N())
	sourceID = 0
	_, err := Run(g, func(v int) Machine {
		machines[v] = &bfsMachine{sourceID: sourceID}
		return machines[v]
	}, Options{SequentialIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	want := g.BFS(0)
	for v, m := range machines {
		if m.dist != want[v] {
			t.Fatalf("node %d: distance %d, want %d", v, m.dist, want[v])
		}
	}
}

// countingMachine verifies Init/Round accounting and immediate halting.
type countingMachine struct {
	info   NodeInfo
	rounds int
	stop   int
}

func (m *countingMachine) Init(info NodeInfo) { m.info = info }

func (m *countingMachine) Round(round int, recv []Message) ([]Message, bool) {
	m.rounds++
	return nil, round >= m.stop
}

func TestHaltingAndRoundCount(t *testing.T) {
	g := graph.Path(4)
	machines := make([]*countingMachine, g.N())
	stats, err := Run(g, func(v int) Machine {
		machines[v] = &countingMachine{stop: v + 1} // node v halts after round v+1
		return machines[v]
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 4 {
		t.Fatalf("rounds = %d, want 4", stats.Rounds)
	}
	for v, m := range machines {
		if m.rounds != v+1 {
			t.Fatalf("node %d stepped %d times, want %d", v, m.rounds, v+1)
		}
	}
	if stats.MessagesSent != 0 {
		t.Fatalf("nil sends counted as messages: %d", stats.MessagesSent)
	}
}

func TestRoundLimit(t *testing.T) {
	g := graph.Path(2)
	_, err := Run(g, func(v int) Machine {
		return &countingMachine{stop: 1 << 30}
	}, Options{MaxRounds: 10})
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
}

// badSender sends the wrong number of messages.
type badSender struct{ deg int }

func (m *badSender) Init(info NodeInfo) { m.deg = info.Degree() }
func (m *badSender) Round(round int, recv []Message) ([]Message, bool) {
	return make([]Message, m.deg+1), true
}

func TestWrongMessageCountRejected(t *testing.T) {
	g := graph.Path(3)
	if _, err := Run(g, func(v int) Machine { return &badSender{} }, Options{}); err == nil {
		t.Fatal("expected error for wrong message slice length")
	}
}

// midRunFaulty behaves like a flood machine but sends one message too many
// in failRound (if fail is set); otherwise it halts after stopRound.
type midRunFaulty struct {
	deg       int
	fail      bool
	failRound int
	stopRound int
}

func (m *midRunFaulty) Init(info NodeInfo) { m.deg = info.Degree() }

func (m *midRunFaulty) Round(round int, recv []Message) ([]Message, bool) {
	if m.fail && round == m.failRound {
		return make([]Message, m.deg+1), false
	}
	send := make([]Message, m.deg)
	for i := range send {
		send[i] = round
	}
	return send, round >= m.stopRound
}

// TestWrongMessageCountPartialStats pins the error-path contract: when a
// machine sends the wrong number of messages mid-round, Run reports the
// lowest offending node and returns well-defined partial Stats — the
// failing round's compute is counted in Rounds and Steps, but none of its
// messages are delivered or counted.
func TestWrongMessageCountPartialStats(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		g := graph.Cycle(5)
		stats, err := Run(g, func(v int) Machine {
			// Nodes 2 and 4 both misbehave in round 2; node 2 must win the
			// blame regardless of the worker count.
			return &midRunFaulty{fail: v == 2 || v == 4, failRound: 2, stopRound: 4}
		}, Options{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		if !strings.Contains(err.Error(), "node 2 sent 3 messages") {
			t.Fatalf("workers=%d: error %q does not blame the lowest offender", workers, err)
		}
		if stats.Rounds != 2 {
			t.Fatalf("workers=%d: Rounds = %d, want 2 (failing round included)", workers, stats.Rounds)
		}
		if stats.Steps != 10 {
			t.Fatalf("workers=%d: Steps = %d, want 10 (both rounds' compute)", workers, stats.Steps)
		}
		// Round 1 delivered 2 messages per node; round 2 delivered nothing.
		if stats.MessagesSent != 10 {
			t.Fatalf("workers=%d: MessagesSent = %d, want 10 (failing round excluded)", workers, stats.MessagesSent)
		}
	}
}

// TestRunDeterministicAcrossWorkers checks the engine's determinism
// guarantee end to end: identical machine results and identical Stats for
// every worker count, on a torus below the inline cutoff and a complete
// graph at it, where every Workers value but 1 shards on the pool.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Torus(6, 6), completeAtCutoff()} {
		run := func(workers int) ([]uint64, Stats) {
			machines := make([]*floodMachine, g.N())
			stats, err := Run(g, func(v int) Machine {
				machines[v] = &floodMachine{}
				return machines[v]
			}, Options{IDSeed: 3, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			mins := make([]uint64, len(machines))
			for v, m := range machines {
				mins[v] = m.min
			}
			return mins, stats
		}
		wantMins, wantStats := run(1)
		for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
			mins, stats := run(workers)
			if stats != wantStats {
				t.Fatalf("n=%d, workers=%d: stats %+v, want %+v", g.N(), workers, stats, wantStats)
			}
			for v := range mins {
				if mins[v] != wantMins[v] {
					t.Fatalf("n=%d, workers=%d: node %d min %d, want %d", g.N(), workers, v, mins[v], wantMins[v])
				}
			}
		}
	}
}

// TestOnRoundStats checks the per-round observer: rounds arrive in order,
// per-round sums match the totals, and Active falls to zero.
func TestOnRoundStats(t *testing.T) {
	g := graph.Cycle(6)
	var rounds []engine.RoundStats
	stats, err := Run(g, func(v int) Machine { return &floodMachine{} },
		Options{OnRound: func(rs engine.RoundStats) { rounds = append(rounds, rs) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != stats.Rounds {
		t.Fatalf("observed %d rounds, want %d", len(rounds), stats.Rounds)
	}
	steps, msgs := 0, 0
	for i, rs := range rounds {
		if rs.Round != i+1 {
			t.Fatalf("round %d reported as %d", i+1, rs.Round)
		}
		steps += rs.Steps
		msgs += rs.Messages
	}
	if steps != stats.Steps {
		t.Fatalf("per-round steps sum %d, Stats.Steps %d", steps, stats.Steps)
	}
	if msgs != stats.MessagesSent {
		t.Fatalf("per-round messages sum %d, Stats.MessagesSent %d", msgs, stats.MessagesSent)
	}
	if last := rounds[len(rounds)-1]; last.Active != 0 {
		t.Fatalf("final round leaves %d machines active", last.Active)
	}
}

func TestMessageStats(t *testing.T) {
	g := graph.Cycle(5)
	stats, err := Run(g, func(v int) Machine { return &floodMachine{} }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every node sends 2 messages per round for N rounds.
	want := 5 * 2 * stats.Rounds
	if stats.MessagesSent != want {
		t.Fatalf("messages = %d, want %d", stats.MessagesSent, want)
	}
}

func TestIDsAreUniqueAndDeterministic(t *testing.T) {
	g := graph.Complete(20)
	collect := func(seed uint64) []uint64 {
		var ids []uint64
		_, err := Run(g, func(v int) Machine {
			m := &floodMachine{}
			return &captureID{inner: m, out: &ids}
		}, Options{IDSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	a := collect(7)
	b := collect(7)
	c := collect(8)
	seen := make(map[uint64]bool)
	for _, id := range a {
		if seen[id] {
			t.Fatal("duplicate ID")
		}
		seen[id] = true
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different IDs")
		}
	}
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical IDs")
	}
}

// captureID records the ID given at Init, then delegates.
type captureID struct {
	inner Machine
	out   *[]uint64
}

func (c *captureID) Init(info NodeInfo) {
	*c.out = append(*c.out, info.ID)
	c.inner.Init(info)
}

func (c *captureID) Round(round int, recv []Message) ([]Message, bool) {
	return c.inner.Round(round, recv)
}

func TestNodeInfoContents(t *testing.T) {
	g := graph.Path(3) // 0-1-2
	var infos []NodeInfo
	_, err := Run(g, func(v int) Machine {
		return &infoGrabber{out: &infos}
	}, Options{SequentialIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("got %d infos", len(infos))
	}
	mid := infos[1]
	if mid.Degree() != 2 || mid.N != 3 || mid.MaxDegree != 2 {
		t.Fatalf("middle node info wrong: %+v", mid)
	}
	if mid.NeighborIDs[0] != 0 || mid.NeighborIDs[1] != 2 {
		t.Fatalf("neighbor IDs wrong: %v", mid.NeighborIDs)
	}
}

type infoGrabber struct{ out *[]NodeInfo }

func (g *infoGrabber) Init(info NodeInfo)                     { *g.out = append(*g.out, info) }
func (g *infoGrabber) Round(int, []Message) ([]Message, bool) { return nil, true }

// concurrencyProbe checks machines actually run concurrently within a round
// (all Round calls of one round overlap a shared barrier counter).
type concurrencyProbe struct {
	deg     int
	active  *atomic.Int32
	maxSeen *atomic.Int32
}

func (m *concurrencyProbe) Init(info NodeInfo) { m.deg = info.Degree() }

func (m *concurrencyProbe) Round(round int, recv []Message) ([]Message, bool) {
	cur := m.active.Add(1)
	for {
		prev := m.maxSeen.Load()
		if cur <= prev || m.maxSeen.CompareAndSwap(prev, cur) {
			break
		}
	}
	// Busy-wait a moment so rounds overlap.
	for i := 0; i < 1000; i++ {
		_ = i
	}
	m.active.Add(-1)
	return nil, true
}

// TestMachinesRunConcurrently runs above the inline cutoff: below it, a
// round runs on the caller alone and no overlap can occur.
func TestMachinesRunConcurrently(t *testing.T) {
	g := cycleAboveCutoff()
	var active, maxSeen atomic.Int32
	_, err := Run(g, func(v int) Machine {
		return &concurrencyProbe{active: &active, maxSeen: &maxSeen}
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if maxSeen.Load() < 2 {
		t.Skip("no overlap observed (single-core scheduling); not a failure")
	}
}

func BenchmarkRunFlood(b *testing.B) {
	g := graph.Torus(10, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, func(v int) Machine { return &floodMachine{} }, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPresetIDs(t *testing.T) {
	g := graph.Path(3)
	var got []uint64
	_, err := Run(g, func(v int) Machine {
		return &captureID{inner: &floodMachine{}, out: &got}
	}, Options{PresetIDs: []uint64{42, 7, 99}})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{42, 7, 99}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

func TestPresetIDsPanics(t *testing.T) {
	g := graph.Path(2)
	t.Run("wrong length", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		_, _ = Run(g, func(v int) Machine { return &floodMachine{} },
			Options{PresetIDs: []uint64{1}})
	})
	t.Run("duplicate", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		_, _ = Run(g, func(v int) Machine { return &floodMachine{} },
			Options{PresetIDs: []uint64{5, 5}})
	})
}

func TestIDSpaceFloor(t *testing.T) {
	if got := IDSpace(2); got != 1024 {
		t.Fatalf("IDSpace(2) = %d, want floor 1024", got)
	}
	if got := IDSpace(100); got != 1000000 {
		t.Fatalf("IDSpace(100) = %d", got)
	}
}
