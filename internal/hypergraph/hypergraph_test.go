package hypergraph

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/prng"
)

// TestAddOwnedEdge checks that an owned member list is kept without a
// copy (sorted in place when it is not ascending), that it fails with
// AddEdge's messages, and that the incidence lists come out in hyperedge
// order through both Incident and ForEachIncident.
func TestAddOwnedEdge(t *testing.T) {
	b := NewBuilder(5)
	sorted, unsorted := []int{0, 2, 4}, []int{4, 1, 2}
	if err := b.AddOwnedEdge(sorted); err != nil {
		t.Fatal(err)
	}
	if err := b.AddOwnedEdge(unsorted); err != nil {
		t.Fatal(err)
	}
	if err := b.AddOwnedEdge([]int{3, 3}); err == nil || err.Error() != "hypergraph: duplicate member in hyperedge: node 3" {
		t.Fatalf("duplicate error = %v", err)
	}
	if err := b.AddOwnedEdge(nil); err != ErrEmptyEdge {
		t.Fatalf("empty error = %v", err)
	}
	h := b.Build()
	if &h.Edge(0)[0] != &sorted[0] || &h.Edge(1)[0] != &unsorted[0] {
		t.Fatal("owned member lists were copied")
	}
	if !slices.Equal(unsorted, []int{1, 2, 4}) {
		t.Fatalf("owned list not sorted in place: %v", unsorted)
	}
	for v, want := range [][]int{{0}, {1}, {0, 1}, nil, {0, 1}} {
		var got []int
		h.ForEachIncident(v, func(id int) { got = append(got, id) })
		if !slices.Equal(got, want) || !slices.Equal(h.Incident(v), want) {
			t.Fatalf("node %d: ForEachIncident %v, Incident %v; want %v", v, got, h.Incident(v), want)
		}
	}
}

// TestBuilderValidates pins each validation error's sentinel and exact
// message. Members are checked in sorted order, each for range before
// duplication.
func TestBuilderValidates(t *testing.T) {
	b := NewBuilder(4)
	for _, tc := range []struct {
		members []int
		is      error
		want    string
	}{
		{nil, ErrEmptyEdge, "hypergraph: empty hyperedge"},
		{[]int{0, 4}, ErrNodeRange, "hypergraph: node out of range: 4 with n=4"},
		{[]int{3, -1}, ErrNodeRange, "hypergraph: node out of range: -1 with n=4"},
		{[]int{1, 2, 1}, ErrDuplicateMember, "hypergraph: duplicate member in hyperedge: node 1"},
		{[]int{5, 1, 1}, ErrDuplicateMember, "hypergraph: duplicate member in hyperedge: node 1"},
		{[]int{1, 1, -2}, ErrNodeRange, "hypergraph: node out of range: -2 with n=4"},
	} {
		if err := b.AddEdge(tc.members...); !errors.Is(err, tc.is) || err.Error() != tc.want {
			t.Errorf("AddEdge(%v) = %v, want %q", tc.members, err, tc.want)
		}
	}
	if err := b.AddEdge(2, 0, 3); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if h := b.Build(); h.M() != 1 {
		t.Fatalf("rejected hyperedges were kept: M = %d", h.M())
	}
}

func TestAccessors(t *testing.T) {
	b := NewBuilder(5)
	for _, e := range [][]int{{0, 1, 2}, {2, 3}, {3, 4, 0}, {1}} {
		if err := b.AddEdge(e...); err != nil {
			t.Fatal(err)
		}
	}
	h := b.Build()
	if h.N() != 5 || h.M() != 4 {
		t.Fatalf("N=%d M=%d", h.N(), h.M())
	}
	if h.Rank() != 3 {
		t.Fatalf("Rank = %d", h.Rank())
	}
	if got := h.Edge(0); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("Edge(0) = %v", got)
	}
	if h.Degree(0) != 2 || h.Degree(1) != 2 || h.Degree(4) != 1 {
		t.Fatal("degrees wrong")
	}
	if h.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d", h.MaxDegree())
	}
	if !h.Contains(0, 1) || h.Contains(1, 0) {
		t.Fatal("Contains wrong")
	}
	inc := h.Incident(2)
	if len(inc) != 2 || inc[0] != 0 || inc[1] != 1 {
		t.Fatalf("Incident(2) = %v", inc)
	}
}

func TestEdgeCopyIsFresh(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	h := b.Build()
	c := h.EdgeCopy(0)
	c[0] = 99
	if h.Edge(0)[0] == 99 {
		t.Fatal("EdgeCopy leaked internal slice")
	}
}

func TestParallelEdgesAllowed(t *testing.T) {
	b := NewBuilder(3)
	for i := 0; i < 3; i++ {
		if err := b.AddEdge(0, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	h := b.Build()
	if h.M() != 3 || h.Degree(0) != 3 {
		t.Fatal("parallel hyperedges not preserved")
	}
	// Dependency graph collapses them into a triangle.
	dg := h.DependencyGraph()
	if dg.M() != 3 {
		t.Fatalf("dependency graph has %d edges, want 3", dg.M())
	}
}

func TestDependencyGraphRank2(t *testing.T) {
	g := graph.Cycle(6)
	h := FromGraph(g)
	if h.Rank() != 2 || h.M() != 6 {
		t.Fatalf("FromGraph: rank=%d M=%d", h.Rank(), h.M())
	}
	dg := h.DependencyGraph()
	if dg.M() != g.M() {
		t.Fatalf("dependency graph edges = %d, want %d", dg.M(), g.M())
	}
	for _, e := range g.Edges() {
		if !dg.HasEdge(e.U, e.V) {
			t.Fatalf("dependency graph missing %v", e)
		}
	}
}

func TestDependencyGraphRank3(t *testing.T) {
	b := NewBuilder(4)
	if err := b.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	dg := b.Build().DependencyGraph()
	want := [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}}
	if dg.M() != len(want) {
		t.Fatalf("dependency graph has %d edges, want %d", dg.M(), len(want))
	}
	for _, e := range want {
		if !dg.HasEdge(e[0], e[1]) {
			t.Fatalf("missing dependency edge %v", e)
		}
	}
	if dg.HasEdge(0, 3) {
		t.Fatal("0 and 3 share no variable but are adjacent")
	}
}

func TestDependencyDegreeBound(t *testing.T) {
	// A node of hypergraph degree delta in a rank-3 hypergraph has
	// dependency degree at most 2*delta.
	r := prng.New(3)
	h, err := RandomRegularRank3(30, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	if d := h.DependencyDegree(); d > 8 {
		t.Fatalf("dependency degree %d exceeds 2*delta = 8", d)
	}
}

func TestRandomRegularRank3(t *testing.T) {
	r := prng.New(5)
	tests := []struct{ n, deg int }{{9, 1}, {12, 2}, {30, 3}, {21, 4}, {60, 5}}
	for _, tt := range tests {
		h, err := RandomRegularRank3(tt.n, tt.deg, r)
		if err != nil {
			t.Fatalf("RandomRegularRank3(%d,%d): %v", tt.n, tt.deg, err)
		}
		for v := 0; v < h.N(); v++ {
			if h.Degree(v) != tt.deg {
				t.Fatalf("(%d,%d): node %d degree %d", tt.n, tt.deg, v, h.Degree(v))
			}
		}
		if h.Rank() != 3 {
			t.Fatalf("(%d,%d): rank %d", tt.n, tt.deg, h.Rank())
		}
	}
}

func TestRandomRegularRank3RejectsBadParams(t *testing.T) {
	r := prng.New(7)
	if _, err := RandomRegularRank3(10, 1, r); err == nil {
		t.Fatal("n*deg not divisible by 3 should fail")
	}
	if _, err := RandomRegularRank3(2, 3, r); err == nil {
		t.Fatal("n < 3 should fail")
	}
}

func TestRandomRank3Bounds(t *testing.T) {
	r := prng.New(9)
	h := RandomRank3(40, 50, 4, r)
	if h.Rank() > 3 {
		t.Fatalf("rank %d", h.Rank())
	}
	if h.MaxDegree() > 4 {
		t.Fatalf("degree %d exceeds bound", h.MaxDegree())
	}
	if h.M() == 0 {
		t.Fatal("no hyperedges generated")
	}
}

func TestTriangleCover(t *testing.T) {
	h := TriangleCover(graph.Complete(4))
	if h.M() != 4 {
		t.Fatalf("K4 has %d triangles, want 4", h.M())
	}
	// Triangle-free graph: no hyperedges.
	if TriangleCover(graph.Cycle(5)).M() != 0 {
		t.Fatal("C5 has no triangles")
	}
}

func TestQuickDependencyGraphSymmetric(t *testing.T) {
	// Every pair inside any hyperedge must be adjacent in the dependency graph.
	f := func(seed uint32) bool {
		r := prng.New(uint64(seed))
		h := RandomRank3(20, 25, 4, r)
		dg := h.DependencyGraph()
		for id := 0; id < h.M(); id++ {
			m := h.Edge(id)
			for i := 0; i < len(m); i++ {
				for j := i + 1; j < len(m); j++ {
					if !dg.HasEdge(m[i], m[j]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDependencyGraph(b *testing.B) {
	r := prng.New(1)
	h, err := RandomRegularRank3(300, 4, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.DependencyGraph()
	}
}

func TestRandomMixedRank(t *testing.T) {
	r := prng.New(13)
	h, err := RandomMixedRank(30, 25, 4, 2, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	if h.M() == 0 {
		t.Fatal("no hyperedges generated")
	}
	if h.MaxDegree() > 4 {
		t.Fatalf("degree %d exceeds bound", h.MaxDegree())
	}
	saw2, saw3 := false, false
	for id := 0; id < h.M(); id++ {
		switch len(h.Edge(id)) {
		case 2:
			saw2 = true
		case 3:
			saw3 = true
		default:
			t.Fatalf("hyperedge %d has size %d", id, len(h.Edge(id)))
		}
	}
	if !saw2 || !saw3 {
		t.Fatalf("sizes not mixed: saw2=%v saw3=%v", saw2, saw3)
	}
	if _, err := RandomMixedRank(5, 3, 2, 1, 3, r); err == nil {
		t.Fatal("minSize 1 accepted")
	}
	if _, err := RandomMixedRank(5, 3, 2, 3, 2, r); err == nil {
		t.Fatal("inverted size range accepted")
	}
}

func TestRandomRegularUniformRank4(t *testing.T) {
	r := prng.New(17)
	h, err := RandomRegularUniform(20, 2, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	if h.Rank() != 4 {
		t.Fatalf("rank = %d", h.Rank())
	}
	for v := 0; v < h.N(); v++ {
		if h.Degree(v) != 2 {
			t.Fatalf("node %d degree %d", v, h.Degree(v))
		}
	}
	if _, err := RandomRegularUniform(10, 1, 4, r); err == nil {
		t.Fatal("n*deg not divisible by k accepted")
	}
	if _, err := RandomRegularUniform(3, 2, 1, r); err == nil {
		t.Fatal("rank 1 accepted")
	}
}

func TestHypergraphDOT(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	s := b.Build().DOT("h")
	for _, want := range []string{"graph h {", "n0 [shape=circle]", "e0 [shape=box]", "n2 -- e0;"} {
		if !strings.Contains(s, want) {
			t.Fatalf("DOT missing %q:\n%s", want, s)
		}
	}
}
