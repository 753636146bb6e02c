package coloring

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prng"
)

func TestDistance2NativeProper(t *testing.T) {
	r := prng.New(31)
	for _, g := range []*graph.Graph{
		graph.Cycle(20),
		graph.Grid(4, 5),
		mustRegular(t, 24, 4, r),
		graph.CompleteBinaryTree(15),
	} {
		res, err := DistributedDistance2Native(g, local.Options{IDSeed: 7})
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
		if m := MaxColor(res.Colors); m >= res.Palette {
			t.Fatalf("colour %d outside palette %d", m, res.Palette)
		}
		if res.SimFactor != 1 {
			t.Fatalf("native machine must report SimFactor 1, got %d", res.SimFactor)
		}
	}
}

func TestDistance2NativeMatchesSquareSimulation(t *testing.T) {
	// Both implementations must produce valid distance-2 colourings with
	// comparable native-round costs (the square-based one claims
	// Rounds × SimFactor; the native one pays rounds directly).
	g := graph.Cycle(24)
	sq, err := DistributedDistance2Coloring(g, local.Options{IDSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	nat, err := DistributedDistance2Native(g, local.Options{IDSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sqCost := sq.Rounds * sq.SimFactor
	natCost := nat.Rounds
	// The native protocol pays 2 rounds per logical step but computes its
	// schedule from the worst case Δ² rather than the realized square
	// degree; allow a 4x band in both directions.
	if natCost > 4*sqCost || sqCost > 4*natCost {
		t.Fatalf("native cost %d vs simulated cost %d diverge", natCost, sqCost)
	}
}

func TestDistance2NativeDeterministic(t *testing.T) {
	g := graph.Grid(4, 4)
	run := func() []int {
		res, err := DistributedDistance2Native(g, local.Options{IDSeed: 33})
		if err != nil {
			t.Fatal(err)
		}
		return res.Colors
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("native distance-2 colouring not deterministic")
		}
	}
}

func TestDistance2NativeLogStarGrowth(t *testing.T) {
	rounds := func(n int) int {
		res, err := DistributedDistance2Native(graph.Cycle(n), local.Options{IDSeed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	small, big := rounds(16), rounds(512)
	if big-small > 8 {
		t.Fatalf("rounds grew from %d to %d; expected log* growth", small, big)
	}
}

// TestVerifyDistance2MatchesSquare checks the square-free distance-2
// check against Verify on the square graph, its reference: on random
// graphs with proper distance-2 colourings, and with conflicts planted at
// distance one, two and three (not a conflict), uncoloured nodes and a
// short colour slice, both must agree on nil or on the error message, which
// names the pair. The check allocates nothing.
func TestVerifyDistance2MatchesSquare(t *testing.T) {
	r := prng.New(53)
	graphs := []*graph.Graph{
		graph.Cycle(9), graph.Path(5), graph.Grid(4, 6), graph.CompleteBinaryTree(31),
		graph.Complete(6), graph.NewBuilder(4).Build(), mustRegular(t, 40, 3, r), mustRegular(t, 72, 5, r),
		graph.RandomBoundedDegree(60, 90, 6, r), graph.RandomTree(50, r),
	}
	for gi, g := range graphs {
		sq := g.Square()
		proper := Greedy(sq)
		if err := VerifyDistance2(g, proper); err != nil {
			t.Fatalf("graph %d: greedy square colouring rejected: %v", gi, err)
		}
		if allocs := testing.AllocsPerRun(10, func() { VerifyDistance2(g, proper) }); allocs != 0 {
			t.Fatalf("graph %d: %v allocations per check, want 0", gi, allocs)
		}
		check := func(what string, colors []int) {
			t.Helper()
			got, want := VerifyDistance2(g, colors), Verify(sq, colors)
			if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
				t.Fatalf("graph %d, %s: VerifyDistance2 = %v, square check = %v", gi, what, got, want)
			}
		}
		check("short", proper[:len(proper)/2])
		n := g.N()
		if n == 0 {
			continue
		}
		for trial := 0; trial < 200; trial++ {
			colors := append([]int(nil), proper...)
			for k := 0; k <= trial%3; k++ {
				v := r.Intn(n)
				switch trial % 4 {
				case 0: // a neighbour's colour
					if g.Degree(v) > 0 {
						colors[v] = colors[g.Neighbor(v, r.Intn(g.Degree(v)))]
					}
				case 1: // a colour two hops away
					if g.Degree(v) > 0 {
						u := g.Neighbor(v, r.Intn(g.Degree(v)))
						colors[v] = colors[g.Neighbor(u, r.Intn(g.Degree(u)))]
					}
				case 2: // any node's colour, near or far
					colors[v] = colors[r.Intn(n)]
				case 3:
					colors[v] = -1
				}
			}
			check(fmt.Sprintf("trial %d", trial), colors)
		}
	}
}

func BenchmarkDistance2Native(b *testing.B) {
	g := graph.Cycle(64)
	for i := 0; i < b.N; i++ {
		if _, err := DistributedDistance2Native(g, local.Options{IDSeed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEdgeColoringNativeProper(t *testing.T) {
	r := prng.New(41)
	for _, g := range []*graph.Graph{
		graph.Cycle(20),
		graph.Grid(4, 5),
		mustRegular(t, 24, 4, r),
		graph.Path(2),
	} {
		res, err := DistributedEdgeColoringNative(g, local.Options{IDSeed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyEdgeColoring(g, res.Colors); err != nil {
			t.Fatal(err)
		}
		d := g.MaxDegree()
		if d > 1 && res.Palette > 2*d-1 {
			t.Fatalf("palette %d exceeds 2Δ-1 = %d", res.Palette, 2*d-1)
		}
		if res.SimFactor != 1 {
			t.Fatalf("native machine must report SimFactor 1, got %d", res.SimFactor)
		}
	}
}

func TestEdgeColoringNativeMatchesLineGraphSimulation(t *testing.T) {
	g := graph.Cycle(24)
	sim, err := DistributedEdgeColoring(g, local.Options{IDSeed: 13})
	if err != nil {
		t.Fatal(err)
	}
	nat, err := DistributedEdgeColoringNative(g, local.Options{IDSeed: 13})
	if err != nil {
		t.Fatal(err)
	}
	simCost := sim.Rounds * sim.SimFactor
	natCost := nat.Rounds
	if natCost > 4*simCost || simCost > 4*natCost {
		t.Fatalf("native cost %d vs simulated cost %d diverge", natCost, simCost)
	}
}

func TestEdgeColoringNativeDeterministic(t *testing.T) {
	g := graph.Grid(3, 5)
	run := func() []int {
		res, err := DistributedEdgeColoringNative(g, local.Options{IDSeed: 21})
		if err != nil {
			t.Fatal(err)
		}
		return res.Colors
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("native edge colouring not deterministic")
		}
	}
}

func TestEdgeColoringNativeLogStarGrowth(t *testing.T) {
	rounds := func(n int) int {
		res, err := DistributedEdgeColoringNative(graph.Cycle(n), local.Options{IDSeed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	small, big := rounds(16), rounds(512)
	if big-small > 8 {
		t.Fatalf("rounds grew from %d to %d; expected log* growth", small, big)
	}
}
