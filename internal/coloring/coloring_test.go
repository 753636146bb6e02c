package coloring

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/obs"
	"repro/internal/prng"
)

func TestGreedySequential(t *testing.T) {
	r := prng.New(1)
	graphs := []*graph.Graph{
		graph.Cycle(7),
		graph.Complete(6),
		graph.Grid(5, 5),
		graph.RandomBoundedDegree(40, 80, 6, r),
	}
	for i, g := range graphs {
		colors := Greedy(g)
		if err := Verify(g, colors); err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if m := MaxColor(colors); m > g.MaxDegree() {
			t.Fatalf("graph %d: max colour %d > Δ = %d", i, m, g.MaxDegree())
		}
	}
}

func TestVerifyCatchesErrors(t *testing.T) {
	g := graph.Path(3)
	if err := Verify(g, []int{0, 0, 1}); err == nil {
		t.Fatal("monochromatic edge not detected")
	}
	if err := Verify(g, []int{0, -1, 0}); err == nil {
		t.Fatal("uncoloured node not detected")
	}
	if err := Verify(g, []int{0, 1}); err == nil {
		t.Fatal("length mismatch not detected")
	}
	if err := Verify(g, []int{0, 1, 0}); err != nil {
		t.Fatalf("valid colouring rejected: %v", err)
	}
}

func TestVerifyEdgeColoring(t *testing.T) {
	g := graph.Path(3) // edges {0,1}, {1,2} share node 1
	if err := VerifyEdgeColoring(g, []int{0, 0}); err == nil {
		t.Fatal("conflicting edge colours not detected")
	}
	if err := VerifyEdgeColoring(g, []int{0, 1}); err != nil {
		t.Fatalf("valid edge colouring rejected: %v", err)
	}
	if err := VerifyEdgeColoring(g, []int{0}); err == nil {
		t.Fatal("length mismatch not detected")
	}
}

func TestPlanStepProperties(t *testing.T) {
	for _, delta := range []int{1, 2, 3, 4, 6, 8} {
		k := 1 << 30
		for {
			s, ok := PlanStep(k, delta)
			if !ok {
				break
			}
			if s.NewK() >= k {
				t.Fatalf("Δ=%d: step from %d to %d makes no progress", delta, k, s.NewK())
			}
			if s.Q < delta*(s.T-1)+1 {
				t.Fatalf("Δ=%d: q=%d violates q ≥ Δ(t-1)+1 with t=%d", delta, s.Q, s.T)
			}
			// q^t must cover the palette.
			pow := 1
			for i := 0; i < s.T; i++ {
				pow *= s.Q
			}
			if pow < k {
				t.Fatalf("Δ=%d: q^t = %d < K = %d", delta, pow, k)
			}
			k = s.NewK()
		}
	}
}

func TestScheduleShortAndFinalPaletteSmall(t *testing.T) {
	for _, delta := range []int{2, 3, 4, 6, 10} {
		k0 := 1 << 45
		sched := Schedule(k0, delta)
		if len(sched) > 8 {
			t.Fatalf("Δ=%d: schedule length %d (expected O(log*))", delta, len(sched))
		}
		final := FinalPalette(k0, delta)
		if final > 50*delta*delta+200 {
			t.Fatalf("Δ=%d: final palette %d not O(Δ²)", delta, final)
		}
	}
}

func TestScheduleLengthGrowsLikeLogStar(t *testing.T) {
	// log*-type growth: going from 2^16 to 2^48 initial colours should add
	// at most 2 steps.
	d16 := len(Schedule(1<<16, 4))
	d48 := len(Schedule(1<<48, 4))
	if d48-d16 > 2 {
		t.Fatalf("schedule grew from %d to %d steps", d16, d48)
	}
}

// sequentialLinial applies one Linial step to every node of g at once and
// checks properness, mimicking what the machine does per round.
func sequentialLinial(t *testing.T, g *graph.Graph, colors []int, s Step) []int {
	t.Helper()
	next := make([]int, len(colors))
	for v := range colors {
		var nbr []int
		for _, u := range g.Neighbors(v) {
			nbr = append(nbr, colors[u])
		}
		c, err := Reduce(s, colors[v], nbr)
		if err != nil {
			t.Fatalf("Reduce at node %d: %v", v, err)
		}
		if c < 0 || c >= s.NewK() {
			t.Fatalf("new colour %d outside [0, %d)", c, s.NewK())
		}
		next[v] = c
	}
	if err := Verify(g, next); err != nil {
		t.Fatalf("coloring not proper after step: %v", err)
	}
	return next
}

func TestReducePreservesProperness(t *testing.T) {
	r := prng.New(3)
	g, err := graph.RandomRegular(60, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	// Unique IDs as initial colours.
	k0 := 60 * 60 * 60
	colors := make([]int, g.N())
	perm := r.Perm(k0)
	for v := range colors {
		colors[v] = perm[v]
	}
	for _, s := range Schedule(k0, g.MaxDegree()) {
		colors = sequentialLinial(t, g, colors, s)
	}
	final := FinalPalette(k0, g.MaxDegree())
	if m := MaxColor(colors); m >= final {
		t.Fatalf("colour %d outside final palette %d", m, final)
	}
}

func TestReduceValidation(t *testing.T) {
	s := Step{K: 100, Q: 11, T: 2}
	if _, err := Reduce(s, 200, nil); err == nil {
		t.Fatal("out-of-palette colour accepted")
	}
	if _, err := Reduce(s, 5, []int{5}); err == nil {
		t.Fatal("improper input colouring accepted")
	}
	if _, err := Reduce(s, 5, []int{200}); err == nil {
		t.Fatal("out-of-palette neighbour accepted")
	}
}

func TestDistributedVertexColoring(t *testing.T) {
	r := prng.New(5)
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle", graph.Cycle(32)},
		{"grid", graph.Grid(6, 6)},
		{"random-regular", mustRegular(t, 40, 4, r)},
		{"complete", graph.Complete(7)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			target := tt.g.MaxDegree() + 1
			res, err := DistributedVertexColoring(tt.g, local.Options{IDSeed: 9}, target)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(tt.g, res.Colors); err != nil {
				t.Fatal(err)
			}
			if m := MaxColor(res.Colors); m >= target {
				t.Fatalf("colour %d outside target palette %d", m, target)
			}
			if res.Rounds <= 0 {
				t.Fatal("no rounds recorded")
			}
		})
	}
}

// TestColoringPooledMatchesInline runs each distributed colouring on a
// cycle whose round work, n steps plus 2n inbox slots, reaches the inline
// cutoff of internal/local (4096), so Workers 2 steps the machines
// concurrently on the engine pool; the result must equal the inline
// Workers 1 run's. Every other test here stays below the cutoff.
func TestColoringPooledMatchesInline(t *testing.T) {
	g := graph.Cycle(1366)
	for _, c := range []struct {
		name string
		run  func(local.Options) (*Result, error)
	}{
		{"vertex", func(o local.Options) (*Result, error) { return DistributedVertexColoring(g, o, 3) }},
		{"edge-native", func(o local.Options) (*Result, error) { return DistributedEdgeColoringNative(g, o) }},
		{"distance-2", func(o local.Options) (*Result, error) { return DistributedDistance2Coloring(g, o) }},
		{"distance-2-native", func(o local.Options) (*Result, error) { return DistributedDistance2Native(g, o) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			inlineReg := obs.NewRegistry()
			inline, err := c.run(local.Options{IDSeed: 17, Workers: 1, Metrics: inlineReg})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			pooled, err := c.run(local.Options{IDSeed: 17, Workers: 2, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			// An inline round is one shard; the pool splits a round of this
			// size into many more (16).
			if shards, rounds := inlineReg.Counter("engine_shards_total").Value(), inlineReg.Counter("local_rounds_total").Value(); rounds == 0 || shards != rounds {
				t.Fatalf("Workers 1: %d shards in %d rounds, want one shard per round", shards, rounds)
			}
			if shards, rounds := reg.Counter("engine_shards_total").Value(), reg.Counter("local_rounds_total").Value(); shards <= 2*rounds {
				t.Fatalf("Workers 2: %d shards in %d rounds, so the rounds ran inline, not on the pool", shards, rounds)
			}
			if !reflect.DeepEqual(pooled, inline) {
				t.Fatalf("Workers 2 result differs from Workers 1: palette %d vs %d, %d vs %d rounds, %d vs %d messages",
					pooled.Palette, inline.Palette, pooled.Rounds, inline.Rounds, pooled.Messages, inline.Messages)
			}
		})
	}
}

func mustRegular(t *testing.T, n, d int, r *prng.Rand) *graph.Graph {
	t.Helper()
	g, err := graph.RandomRegular(n, d, r)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDistributedVertexColoringRejectsSmallTarget(t *testing.T) {
	if _, err := DistributedVertexColoring(graph.Complete(5), local.Options{}, 3); err == nil {
		t.Fatal("target below Δ+1 accepted")
	}
}

func TestDistributedColoringRoundsLogStarGrowth(t *testing.T) {
	// Rounds should be dominated by the O(Δ²) reduction and grow only by
	// O(1) when n explodes (the log* term).
	rounds := func(n int) int {
		g := graph.Cycle(n)
		res, err := DistributedVertexColoring(g, local.Options{IDSeed: 11}, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	small, big := rounds(16), rounds(2048)
	if big-small > 3 {
		t.Fatalf("rounds grew from %d to %d; expected log* growth", small, big)
	}
}

func TestDistributedEdgeColoring(t *testing.T) {
	r := prng.New(7)
	for _, g := range []*graph.Graph{
		graph.Cycle(20),
		graph.Grid(4, 5),
		mustRegular(t, 24, 5, r),
	} {
		res, err := DistributedEdgeColoring(g, local.Options{IDSeed: 13})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyEdgeColoring(g, res.Colors); err != nil {
			t.Fatal(err)
		}
		if res.Palette > 2*g.MaxDegree()-1 {
			t.Fatalf("palette %d exceeds 2Δ-1 = %d", res.Palette, 2*g.MaxDegree()-1)
		}
		if res.SimFactor != 2 {
			t.Fatalf("SimFactor = %d, want 2", res.SimFactor)
		}
	}
}

func TestDistributedDistance2Coloring(t *testing.T) {
	r := prng.New(9)
	for _, g := range []*graph.Graph{
		graph.Cycle(18),
		graph.Grid(4, 4),
		mustRegular(t, 30, 3, r),
	} {
		res, err := DistributedDistance2Coloring(g, local.Options{IDSeed: 15})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyDistance2(g, res.Colors); err != nil {
			t.Fatal(err)
		}
		d := g.MaxDegree()
		if res.Palette > d*d+1 {
			t.Fatalf("palette %d exceeds Δ²+1 = %d", res.Palette, d*d+1)
		}
	}
}

func TestColeVishkinCycle(t *testing.T) {
	for _, n := range []int{3, 4, 7, 64, 1000} {
		res, err := ColeVishkinCycle(n, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := Verify(graph.Cycle(n), res.Colors); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if m := MaxColor(res.Colors); m > 2 {
			t.Fatalf("n=%d: colour %d outside {0,1,2}", n, m)
		}
		if res.Rounds > 20 {
			t.Fatalf("n=%d: %d rounds is not O(log* n)", n, res.Rounds)
		}
	}
}

func TestColeVishkinDeterministic(t *testing.T) {
	a, err := ColeVishkinCycle(50, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ColeVishkinCycle(50, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Colors {
		if a.Colors[i] != b.Colors[i] {
			t.Fatal("same seed produced different colourings")
		}
	}
}

func TestCVIterationsLogStar(t *testing.T) {
	if it := cvIterations(1 << 60); it > 6 {
		t.Fatalf("cvIterations(2^60) = %d, expected <= 6", it)
	}
	if it := cvIterations(6); it != 0 {
		t.Fatalf("cvIterations(6) = %d, want 0", it)
	}
}

func BenchmarkDistributedVertexColoring(b *testing.B) {
	g := graph.Cycle(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DistributedVertexColoring(g, local.Options{IDSeed: uint64(i)}, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColeVishkin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ColeVishkinCycle(256, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestKWScheduleShrinks(t *testing.T) {
	for _, tc := range []struct{ k, tgt int }{
		{1369, 7}, {121, 3}, {100, 5}, {8, 3}, {3, 3}, {2, 5},
	} {
		sched := kwSchedule(tc.k, tc.tgt)
		k := tc.k
		for _, want := range sched {
			if want != k {
				t.Fatalf("kwSchedule(%d,%d) inconsistent: %v", tc.k, tc.tgt, sched)
			}
			blocks := (k + 2*tc.tgt - 1) / (2 * tc.tgt)
			next := blocks * tc.tgt
			if next >= k {
				t.Fatalf("kwSchedule(%d,%d) does not shrink at %d", tc.k, tc.tgt, k)
			}
			k = next
		}
		if k > tc.tgt {
			t.Fatalf("kwSchedule(%d,%d) ends at %d > tgt", tc.k, tc.tgt, k)
		}
	}
}

func TestKWRoundsLogarithmic(t *testing.T) {
	// O(tgt · log(K/tgt)): far below the naive K - tgt rounds.
	if r := kwRounds(1369, 7); r > 7*9 {
		t.Fatalf("kwRounds(1369,7) = %d, expected <= 63", r)
	}
	if r := kwRounds(121, 3); r > 3*7 {
		t.Fatalf("kwRounds(121,3) = %d", r)
	}
	if r := kwRounds(5, 5); r != 0 {
		t.Fatalf("kwRounds(5,5) = %d, want 0", r)
	}
}

func TestKWStepSequentialSimulation(t *testing.T) {
	// Simulate the full KW reduction synchronously on random graphs and
	// check properness after every round and the final palette.
	r := prng.New(71)
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomBoundedDegree(40, 70, 5, r)
		delta := g.MaxDegree()
		tgt := delta + 1
		k0 := 40 + r.Intn(500) + tgt
		colors := make([]int, g.N())
		perm := r.Perm(k0)
		for v := range colors {
			colors[v] = perm[v]
		}
		sched := kwSchedule(k0, tgt)
		used := make([]bool, tgt)
		for range sched {
			for j := 0; j < tgt; j++ {
				next := make([]int, len(colors))
				for v := range colors {
					var nbr []int
					for _, u := range g.Neighbors(v) {
						nbr = append(nbr, colors[u])
					}
					c, ok := kwStep(tgt, j, colors[v], nbr, used)
					if !ok {
						t.Fatalf("trial %d: no free colour", trial)
					}
					next[v] = c
				}
				colors = next
				if err := Verify(g, colors); err != nil {
					t.Fatalf("trial %d: %v after round j=%d", trial, err, j)
				}
			}
		}
		if m := MaxColor(colors); m >= tgt {
			t.Fatalf("trial %d: colour %d outside target %d", trial, m, tgt)
		}
	}
}

func TestDistributedColoringRoundsImprovedByKW(t *testing.T) {
	// With KW halving the vertex colouring of a 6-regular graph must be
	// far below the naive O(Δ² log² Δ) class-by-class cost.
	r := prng.New(73)
	g := mustRegular(t, 24, 6, r)
	res, err := DistributedVertexColoring(g, local.Options{IDSeed: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 150 {
		t.Fatalf("%d rounds; KW reduction should stay well under 150", res.Rounds)
	}
}
