package core

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/local"
	"repro/internal/prng"
)

func TestCorollary12OnCycles(t *testing.T) {
	for _, n := range []int{4, 8, 16, 64} {
		s, err := apps.NewSinkless(graph.Cycle(n), 0.2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := FixDistributed2(s.Instance, Options{}, local.Options{IDSeed: uint64(n)})
		if err != nil {
			t.Fatal(err)
		}
		if res.ViolatedEvents != 0 {
			t.Fatalf("n=%d: %d violated events", n, res.ViolatedEvents)
		}
		if !res.Assignment.Complete() {
			t.Fatalf("n=%d: incomplete assignment", n)
		}
		if sinks := s.Sinks(res.Assignment); len(sinks) != 0 {
			t.Fatalf("n=%d: sinks %v", n, sinks)
		}
		if res.TotalRounds != res.ColoringRounds+res.FixingRounds {
			t.Fatalf("round accounting inconsistent: %+v", res)
		}
	}
}

func TestCorollary12OnRegularGraphs(t *testing.T) {
	r := prng.New(31)
	for _, tc := range []struct{ n, d int }{{12, 3}, {20, 4}, {18, 5}} {
		g, err := graph.RandomRegular(tc.n, tc.d, r)
		if err != nil {
			t.Fatal(err)
		}
		s, err := apps.NewSinkless(g, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := FixDistributed2(s.Instance, Options{}, local.Options{IDSeed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.ViolatedEvents != 0 {
			t.Fatalf("(n=%d,d=%d): %d violations", tc.n, tc.d, res.ViolatedEvents)
		}
		// Palette of the edge colouring bounds the classes: ≤ 2d-1.
		if res.Classes > 2*tc.d-1 {
			t.Fatalf("(n=%d,d=%d): %d classes > 2d-1", tc.n, tc.d, res.Classes)
		}
	}
}

func TestCorollary12MatchesSequentialGuarantees(t *testing.T) {
	// Distributed and sequential runs need not pick identical values (the
	// orders differ), but both must avoid all events and respect P*.
	s, err := apps.NewSinkless(graph.Cycle(12), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	seqRes, err := FixSequential(s.Instance, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	distRes, err := FixDistributed2(s.Instance, Options{}, local.Options{IDSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if seqRes.Stats.FinalViolatedEvents != 0 || distRes.ViolatedEvents != 0 {
		t.Fatal("either run violated events")
	}
}

func TestCorollary12RejectsRank3(t *testing.T) {
	r := prng.New(33)
	h, err := hypergraph.RandomRegularRank3(12, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	s, err := apps.NewHyperSinkless(h, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FixDistributed2(s.Instance, Options{}, local.Options{}); err == nil {
		t.Fatal("rank-3 instance accepted by FixDistributed2")
	}
}

func TestCorollary14OnRegularHypergraphs(t *testing.T) {
	r := prng.New(35)
	for _, tc := range []struct{ n, deg int }{{12, 2}, {24, 3}} {
		h, err := hypergraph.RandomRegularRank3(tc.n, tc.deg, r)
		if err != nil {
			t.Fatal(err)
		}
		s, err := apps.NewHyperSinkless(h, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := FixDistributed3(s.Instance, Options{}, local.Options{IDSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if res.ViolatedEvents != 0 {
			t.Fatalf("(n=%d,deg=%d): %d violations", tc.n, tc.deg, res.ViolatedEvents)
		}
		if sinks := s.Sinks(res.Assignment); len(sinks) != 0 {
			t.Fatalf("(n=%d,deg=%d): sinks %v", tc.n, tc.deg, sinks)
		}
		d := s.Instance.D()
		if res.Classes > d*d+1 {
			t.Fatalf("(n=%d,deg=%d): %d classes > d²+1 = %d", tc.n, tc.deg, res.Classes, d*d+1)
		}
	}
}

func TestCorollary14OnWeakSplitting(t *testing.T) {
	r := prng.New(37)
	adj, err := apps.RandomBiregular(12, 3, 12, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	w, err := apps.NewWeakSplitting(adj, 12, 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FixDistributed3(w.Instance, Options{}, local.Options{IDSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.ViolatedEvents != 0 {
		t.Fatalf("%d violations", res.ViolatedEvents)
	}
	if mono := w.Monochromatic(res.Assignment); len(mono) != 0 {
		t.Fatalf("monochromatic V-nodes %v", mono)
	}
}

func TestCorollary14MixedRanks(t *testing.T) {
	// HyperSinkless instances with added private coins exercise rank-1 and
	// rank-3 variables together in the distributed protocol.
	r := prng.New(39)
	h, err := hypergraph.RandomRegularRank3(15, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	s, err := apps.NewHyperSinkless(h, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FixDistributed3(s.Instance, Options{Strategy: StrategyFirst}, local.Options{IDSeed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if res.ViolatedEvents != 0 {
		t.Fatalf("%d violations", res.ViolatedEvents)
	}
}

func TestDistributedDeterministicForSeed(t *testing.T) {
	s, err := apps.NewSinkless(graph.Cycle(10), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []int {
		res, err := FixDistributed2(s.Instance, Options{}, local.Options{IDSeed: 99})
		if err != nil {
			t.Fatal(err)
		}
		vals, _ := res.Assignment.Values()
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("distributed run not deterministic for fixed seed")
		}
	}
}

func TestCorollary12RoundsLogStarGrowth(t *testing.T) {
	// Round complexity O(poly d + log* n): on cycles (fixed degree 2, hence
	// a fixed poly(d) term) rounds must grow only by O(1) as n explodes —
	// the log* term.
	rounds := func(n int) int {
		s, err := apps.NewSinkless(graph.Cycle(n), 0.2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := FixDistributed2(s.Instance, Options{}, local.Options{IDSeed: 17})
		if err != nil {
			t.Fatal(err)
		}
		if res.ViolatedEvents != 0 {
			t.Fatalf("n=%d: violations", n)
		}
		return res.TotalRounds
	}
	small := rounds(16)
	big := rounds(1024)
	if big-small > 8 {
		t.Fatalf("rounds grew from %d to %d for 64x nodes; expected log* growth", small, big)
	}
}

func BenchmarkFixDistributed2(b *testing.B) {
	s, err := apps.NewSinkless(graph.Cycle(64), 0.2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FixDistributed2(s.Instance, Options{}, local.Options{IDSeed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFixDistributed3(b *testing.B) {
	r := prng.New(1)
	h, err := hypergraph.RandomRegularRank3(24, 2, r)
	if err != nil {
		b.Fatal(err)
	}
	s, err := apps.NewHyperSinkless(h, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FixDistributed3(s.Instance, Options{}, local.Options{IDSeed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFixDistributed3Hyper72 runs Corollary 1.4 at the shape of the
// end-to-end benchmark's dist-cold jobs: rank-3 hyper-sinkless on n = 72
// nodes of degree 3 with slack 0.4. The ID seed is fixed, so every
// iteration does the same colouring and fixing work. The runs use the
// engine's shared pool, which takes its worker count from GOMAXPROCS once
// per process: compare worker counts with -cpu 1 and -cpu 2 in separate
// runs, not with -cpu 1,2 in one.
func BenchmarkFixDistributed3Hyper72(b *testing.B) {
	h, err := hypergraph.RandomRegularRank3(72, 3, prng.New(2701))
	if err != nil {
		b.Fatal(err)
	}
	s, err := apps.NewHyperSinkless(h, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FixDistributed3(s.Instance, Options{}, local.Options{IDSeed: 2701}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPhiIDInjective holds phiID's one-word packing to the struct key
// phiKey (flood_test.go): over every edge and endpoint of a small complete
// graph and of edges at the top of the event range, each (lo, hi, side)
// packs to its own word, which decodes back to it. Event counts from 2^31
// up are rejected, since their indices would overflow the packing.
func TestPhiIDInjective(t *testing.T) {
	const top = maxPhiEvents - 1
	complete := func(k int) []pairKey {
		var edges []pairKey
		for lo := 0; lo < k; lo++ {
			for hi := lo + 1; hi < k; hi++ {
				edges = append(edges, pairKey{lo, hi})
			}
		}
		return edges
	}
	seen := make(map[phiID]phiKey)
	for _, tc := range []struct {
		name  string
		edges []pairKey
	}{
		{"K8", complete(8)},
		{"top", []pairKey{{0, top}, {1, top}, {top - 1, top}, {top - 2, top - 1}, {0, 1 << 30}, {1 << 30, top}}},
	} {
		for _, e := range tc.edges {
			for _, at := range []int{e.lo, e.hi} {
				want := phiKey{edge: e, at: at}
				id := phiOf(e, at)
				if prev, dup := seen[id]; dup {
					t.Fatalf("%s: %+v and %+v both pack to %#x", tc.name, prev, want, id)
				}
				seen[id] = want
				got := phiKey{edge: pairKey{lo: int(id >> 32), hi: int((id >> 1) & top)}}
				got.at = got.edge.lo
				if id&1 == 1 {
					got.at = got.edge.hi
				}
				if got != want {
					t.Errorf("%s: %+v packs to %#x, which decodes to %+v", tc.name, want, id, got)
				}
			}
		}
	}
	for _, tc := range []struct {
		events int
		ok     bool
	}{{0, true}, {72, true}, {top, true}, {maxPhiEvents, false}, {1 << 40, false}} {
		if err := checkPhiEvents(tc.events); (err == nil) != tc.ok {
			t.Errorf("checkPhiEvents(%d) = %v, want ok=%v", tc.events, err, tc.ok)
		}
	}
}
