package graph

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

// TestAddEdgeIfAbsent checks that a repeated edge is skipped without an
// error, invalid edges fail with AddEdge's messages, and Grow changes
// nothing but capacity.
func TestAddEdgeIfAbsent(t *testing.T) {
	b := NewBuilder(4)
	b.Grow(3)
	for _, tc := range []struct {
		u, v  int
		added bool
	}{{2, 1, true}, {1, 2, false}, {0, 3, true}, {3, 0, false}, {1, 3, true}} {
		added, err := b.AddEdgeIfAbsent(tc.u, tc.v)
		if err != nil || added != tc.added {
			t.Fatalf("AddEdgeIfAbsent(%d, %d) = %v, %v; want %v, nil", tc.u, tc.v, added, err, tc.added)
		}
	}
	if _, err := b.AddEdgeIfAbsent(2, 2); err == nil || err.Error() != "graph: self-loop: {2,2}" {
		t.Fatalf("self-loop error = %v", err)
	}
	if _, err := b.AddEdgeIfAbsent(0, 4); err == nil || err.Error() != "graph: node out of range: {0,4} with n=4" {
		t.Fatalf("range error = %v", err)
	}
	g := b.Build()
	if got, want := g.Edges(), []Edge{{1, 2}, {0, 3}, {1, 3}}; !slices.Equal(got, want) {
		t.Fatalf("edges %v, want %v", got, want)
	}
	if got := g.IncidentEdges(3); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("IncidentEdges(3) = %v, want [1 2]", got)
	}
}

// TestAdjacencySortedDense checks the flat adjacency on dense and
// shuffled inputs: every list ascends by neighbour and pairs each
// neighbour with the identifier of the connecting edge.
func TestAdjacencySortedDense(t *testing.T) {
	rr, err := RandomRegular(60, 7, prng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{Complete(80), rr, rr.Square(), Cycle(9).LineGraph(), NewBuilder(3).Build()} {
		degrees := 0
		for v := 0; v < g.N(); v++ {
			nb, ids := g.Neighbors(v), g.IncidentEdges(v)
			if !slices.IsSorted(nb) || len(nb) != g.Degree(v) {
				t.Fatalf("node %d: neighbours %v not sorted or not of degree %d", v, nb, g.Degree(v))
			}
			for i, u := range nb {
				if e := g.Edge(ids[i]); e.Other(v) != u {
					t.Fatalf("node %d: edge %d = %v does not join it to %d", v, ids[i], e, u)
				}
			}
			degrees += len(nb)
		}
		if degrees != 2*g.M() {
			t.Fatalf("degrees sum to %d, want 2M = %d", degrees, 2*g.M())
		}
	}
}

// TestBuilderRejectsBadEdges pins each validation error's sentinel and
// exact message, in the order the checks run: self-loop, then range, then
// duplicate.
func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	for _, tc := range []struct {
		u, v int
		is   error
		want string
	}{
		{1, 1, ErrSelfLoop, "graph: self-loop: {1,1}"},
		{5, 5, ErrSelfLoop, "graph: self-loop: {5,5}"},
		{0, 3, ErrNodeRange, "graph: node out of range: {0,3} with n=3"},
		{-1, 0, ErrNodeRange, "graph: node out of range: {-1,0} with n=3"},
		{1, 0, ErrDuplicateEdge, "graph: duplicate edge: {1,0}"},
		{0, 1, ErrDuplicateEdge, "graph: duplicate edge: {0,1}"},
	} {
		if err := b.AddEdge(tc.u, tc.v); !errors.Is(err, tc.is) || err.Error() != tc.want {
			t.Errorf("AddEdge(%d, %d) = %v, want %q", tc.u, tc.v, err, tc.want)
		}
	}
	if g := b.Build(); g.M() != 1 {
		t.Fatalf("rejected edges were kept: M = %d", g.M())
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 2, V: 5}
	if e.Other(2) != 5 || e.Other(5) != 2 {
		t.Fatal("Other returned wrong endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint should panic")
		}
	}()
	e.Other(3)
}

func TestBasicAccessors(t *testing.T) {
	b := NewBuilder(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.N() != 4 || g.M() != 5 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if g.Degree(0) != 3 || g.Degree(3) != 2 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(3))
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	nbrs := g.Neighbors(0)
	if len(nbrs) != 3 || nbrs[0] != 1 || nbrs[1] != 2 || nbrs[2] != 3 {
		t.Fatalf("Neighbors(0) = %v", nbrs)
	}
	if !g.HasEdge(0, 2) || g.HasEdge(1, 3) {
		t.Fatal("HasEdge wrong")
	}
	id, ok := g.EdgeBetween(2, 0)
	if !ok || g.Edge(id).normalize() != (Edge{U: 0, V: 2}) {
		t.Fatalf("EdgeBetween(2,0) = %d, %v", id, ok)
	}
	if _, ok := g.EdgeBetween(0, 17); ok {
		t.Fatal("EdgeBetween out of range should be false")
	}
}

func TestIncidentEdgesMatchNeighbors(t *testing.T) {
	g := Grid(3, 4)
	for v := 0; v < g.N(); v++ {
		ids := g.IncidentEdges(v)
		nbrs := g.Neighbors(v)
		if len(ids) != len(nbrs) {
			t.Fatalf("node %d: %d edges vs %d neighbors", v, len(ids), len(nbrs))
		}
		for i, id := range ids {
			if g.Edge(id).Other(v) != nbrs[i] {
				t.Fatalf("node %d edge %d mismatched neighbor", v, id)
			}
		}
	}
}

func TestBFSOnPath(t *testing.T) {
	g := Path(5)
	d := g.BFS(0)
	for i := 0; i < 5; i++ {
		if d[i] != i {
			t.Fatalf("distance to %d = %d", i, d[i])
		}
	}
}

func TestConnected(t *testing.T) {
	if !Cycle(5).Connected() {
		t.Fatal("cycle should be connected")
	}
	b := NewBuilder(4)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if b.Build().Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !NewBuilder(1).Build().Connected() {
		t.Fatal("single node should be connected")
	}
}

func TestDiameter(t *testing.T) {
	if d := Path(6).Diameter(); d != 5 {
		t.Fatalf("path diameter = %d", d)
	}
	if d := Cycle(8).Diameter(); d != 4 {
		t.Fatalf("cycle diameter = %d", d)
	}
	b := NewBuilder(3)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if d := b.Build().Diameter(); d != -1 {
		t.Fatalf("disconnected diameter = %d", d)
	}
}

func TestSquareOfPath(t *testing.T) {
	g := Path(5) // 0-1-2-3-4
	sq := g.Square()
	wantEdges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}, {1, 3}, {2, 4}}
	if sq.M() != len(wantEdges) {
		t.Fatalf("square has %d edges, want %d", sq.M(), len(wantEdges))
	}
	for _, e := range wantEdges {
		if !sq.HasEdge(e[0], e[1]) {
			t.Fatalf("square missing edge %v", e)
		}
	}
}

func TestSquareDegreeBound(t *testing.T) {
	r := prng.New(1)
	g, err := RandomRegular(40, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	sq := g.Square()
	if sq.MaxDegree() > 4*4 {
		t.Fatalf("square degree %d exceeds d^2 = 16", sq.MaxDegree())
	}
}

func TestLineGraphOfTriangle(t *testing.T) {
	lg := Cycle(3).LineGraph()
	if lg.N() != 3 || lg.M() != 3 {
		t.Fatalf("line graph of triangle: N=%d M=%d, want 3/3", lg.N(), lg.M())
	}
}

func TestLineGraphOfStar(t *testing.T) {
	b := NewBuilder(5)
	for v := 1; v < 5; v++ {
		if err := b.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	lg := b.Build().LineGraph()
	// All 4 edges share node 0, so L(G) = K4.
	if lg.N() != 4 || lg.M() != 6 {
		t.Fatalf("line graph of star: N=%d M=%d, want 4/6", lg.N(), lg.M())
	}
}

func TestLineGraphDegreeBound(t *testing.T) {
	r := prng.New(2)
	g, err := RandomRegular(30, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	lg := g.LineGraph()
	if lg.MaxDegree() > 2*5-2 {
		t.Fatalf("line graph degree %d exceeds 2d-2 = 8", lg.MaxDegree())
	}
}

func TestCycleStructure(t *testing.T) {
	g := Cycle(7)
	if g.N() != 7 || g.M() != 7 || g.MaxDegree() != 2 {
		t.Fatalf("bad cycle: N=%d M=%d maxDeg=%d", g.N(), g.M(), g.MaxDegree())
	}
}

func TestCompleteStructure(t *testing.T) {
	g := Complete(6)
	if g.M() != 15 || g.MaxDegree() != 5 {
		t.Fatalf("bad K6: M=%d maxDeg=%d", g.M(), g.MaxDegree())
	}
}

func TestGridStructure(t *testing.T) {
	g := Grid(3, 3)
	if g.N() != 9 || g.M() != 12 || g.MaxDegree() != 4 {
		t.Fatalf("bad grid: N=%d M=%d maxDeg=%d", g.N(), g.M(), g.MaxDegree())
	}
	if !g.Connected() {
		t.Fatal("grid should be connected")
	}
}

func TestTorusIsRegular(t *testing.T) {
	g := Torus(4, 5)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus node %d degree %d", v, g.Degree(v))
		}
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	g := CompleteBinaryTree(15)
	if g.M() != 14 || !g.Connected() {
		t.Fatalf("binary tree wrong: M=%d", g.M())
	}
	if g.Degree(0) != 2 {
		t.Fatalf("root degree %d", g.Degree(0))
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	r := prng.New(5)
	for _, n := range []int{1, 2, 3, 10, 100} {
		g := RandomTree(n, r)
		if g.M() != n-1 && n > 0 {
			if !(n == 1 && g.M() == 0) {
				t.Fatalf("n=%d: tree has %d edges", n, g.M())
			}
		}
		if !g.Connected() {
			t.Fatalf("n=%d: random tree disconnected", n)
		}
	}
}

func TestRandomRegularProperties(t *testing.T) {
	r := prng.New(7)
	tests := []struct{ n, d int }{
		{10, 3}, {20, 4}, {50, 5}, {16, 2}, {8, 7},
	}
	for _, tt := range tests {
		g, err := RandomRegular(tt.n, tt.d, r)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tt.n, tt.d, err)
		}
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != tt.d {
				t.Fatalf("RandomRegular(%d,%d): node %d degree %d", tt.n, tt.d, v, g.Degree(v))
			}
		}
	}
}

func TestRandomRegularRejectsBadParams(t *testing.T) {
	r := prng.New(9)
	if _, err := RandomRegular(5, 3, r); err == nil {
		t.Fatal("odd n*d should fail")
	}
	if _, err := RandomRegular(4, 4, r); err == nil {
		t.Fatal("d >= n should fail")
	}
	g, err := RandomRegular(6, 0, r)
	if err != nil || g.M() != 0 {
		t.Fatal("d=0 should give empty graph")
	}
}

func TestRandomBoundedDegreeRespectsBound(t *testing.T) {
	r := prng.New(11)
	g := RandomBoundedDegree(50, 120, 5, r)
	if g.MaxDegree() > 5 {
		t.Fatalf("degree bound violated: %d", g.MaxDegree())
	}
	if g.M() == 0 {
		t.Fatal("generator produced no edges")
	}
}

func TestHyperCube(t *testing.T) {
	g := HyperCube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("Q4: N=%d M=%d", g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("Q4 node %d degree %d", v, g.Degree(v))
		}
	}
	if d := g.Diameter(); d != 4 {
		t.Fatalf("Q4 diameter = %d", d)
	}
}

func TestDOTOutput(t *testing.T) {
	s := Path(3).DOT("p3")
	if !strings.Contains(s, "graph p3 {") || !strings.Contains(s, "0 -- 1;") {
		t.Fatalf("unexpected DOT output:\n%s", s)
	}
}

func TestQuickSquareContainsOriginal(t *testing.T) {
	r := prng.New(13)
	f := func(seed uint32) bool {
		rr := prng.New(uint64(seed))
		g := RandomBoundedDegree(20, 30, 4, rr)
		sq := g.Square()
		for _, e := range g.Edges() {
			if !sq.HasEdge(e.U, e.V) {
				return false
			}
		}
		return true
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLineGraphHandshake(t *testing.T) {
	// Sum of degrees in L(G) = 2 * number of adjacent edge pairs
	// = 2 * sum over v of C(deg(v), 2).
	f := func(seed uint32) bool {
		rr := prng.New(uint64(seed))
		g := RandomBoundedDegree(15, 25, 5, rr)
		lg := g.LineGraph()
		pairs := 0
		for v := 0; v < g.N(); v++ {
			d := g.Degree(v)
			pairs += d * (d - 1) / 2
		}
		return lg.M() == pairs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSquare(b *testing.B) {
	r := prng.New(1)
	g, err := RandomRegular(500, 6, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Square()
	}
}

func BenchmarkBFS(b *testing.B) {
	g := Grid(100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.BFS(0)
	}
}
