package apps

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/model"
	"repro/internal/prng"
)

func TestSinklessThresholdInstance(t *testing.T) {
	s, err := NewSinkless(graph.Cycle(6), 0)
	if err != nil {
		t.Fatal(err)
	}
	inst := s.Instance
	p, d, r := inst.Params()
	if math.Abs(p-0.25) > 1e-12 || d != 2 || r != 2 {
		t.Fatalf("params = (%v, %d, %d), want (0.25, 2, 2)", p, d, r)
	}
	ok, margin := inst.ExponentialCriterion()
	if ok || math.Abs(margin-1) > 1e-12 {
		t.Fatalf("threshold instance: ok=%v margin=%v, want false/1", ok, margin)
	}
}

func TestSinklessRelaxedInstance(t *testing.T) {
	s, err := NewSinkless(graph.Cycle(6), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ok, margin := s.Instance.ExponentialCriterion()
	if !ok {
		t.Fatalf("relaxed instance should satisfy criterion, margin = %v", margin)
	}
	// margin = (1-δ)^d = 0.8^2.
	if math.Abs(margin-0.64) > 1e-9 {
		t.Fatalf("margin = %v, want 0.64", margin)
	}
}

func TestSinklessWithMargin(t *testing.T) {
	for _, m := range []float64{0.5, 0.9, 0.99, 1.0} {
		s, err := NewSinklessWithMargin(graph.Cycle(8), m)
		if err != nil {
			t.Fatal(err)
		}
		_, got := s.Instance.ExponentialCriterion()
		if math.Abs(got-m) > 1e-9 {
			t.Fatalf("requested margin %v, got %v", m, got)
		}
	}
	if _, err := NewSinklessWithMargin(graph.Path(4), 0.5); err == nil {
		t.Fatal("irregular graph should be rejected")
	}
	if _, err := NewSinklessWithMargin(graph.Cycle(4), 1.5); err == nil {
		t.Fatal("margin > 1 should be rejected")
	}
}

func TestSinklessRejectsIsolatedNode(t *testing.T) {
	b := graph.NewBuilder(3)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSinkless(b.Build(), 0); err == nil {
		t.Fatal("degree-0 node should be rejected")
	}
}

func TestSinklessOrientationAndSinks(t *testing.T) {
	g := graph.Cycle(4)
	s, err := NewSinkless(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := model.NewAssignment(s.Instance)
	// Orient every edge towards its higher endpoint: cyclic orientation,
	// except edge {3,0} whose V endpoint... Edge {0,3} normalized has U=0.
	// Point every edge at V: edges {0,1}->1, {1,2}->2, {2,3}->3, {0,3}->3.
	for id := 0; id < g.M(); id++ {
		a.Fix(s.EdgeVar[id], ToV)
	}
	sinks := s.Sinks(a)
	if len(sinks) != 1 || sinks[0] != 3 {
		t.Fatalf("sinks = %v, want [3]", sinks)
	}
	violated, err := s.Instance.CountViolated(a)
	if err != nil || violated != 1 {
		t.Fatalf("CountViolated = %d, %v; want 1", violated, err)
	}
	if got := s.OrientationOf(0, a); got != g.Edge(0).V {
		t.Fatalf("OrientationOf(0) = %d", got)
	}
}

func TestSinklessFreeOrientation(t *testing.T) {
	g := graph.Cycle(3)
	s, err := NewSinkless(g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	a := model.NewAssignment(s.Instance)
	for id := 0; id < g.M(); id++ {
		a.Fix(s.EdgeVar[id], Free)
	}
	if got := s.OrientationOf(0, a); got != -1 {
		t.Fatalf("free edge orientation = %d, want -1", got)
	}
	if sinks := s.Sinks(a); len(sinks) != 0 {
		t.Fatalf("free orientation has sinks %v", sinks)
	}
}

func TestHyperSinklessParams(t *testing.T) {
	r := prng.New(1)
	h, err := hypergraph.RandomRegularRank3(30, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewHyperSinkless(h, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	p, d, rank := s.Instance.Params()
	if rank != 3 {
		t.Fatalf("rank = %d, want 3", rank)
	}
	// p = ((1-0.4)/3)^3 = 0.2^3.
	if math.Abs(p-0.008) > 1e-12 {
		t.Fatalf("p = %v, want 0.008", p)
	}
	if d > 6 {
		t.Fatalf("d = %d > 2*deg = 6", d)
	}
	ok, margin := s.Instance.ExponentialCriterion()
	if !ok {
		t.Fatalf("criterion should hold, margin = %v", margin)
	}
}

func TestHyperSinklessSinks(t *testing.T) {
	b := hypergraph.NewBuilder(5)
	if err := b.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 3, 4); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 3, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 4, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(3, 4, 0); err != nil {
		t.Fatal(err)
	}
	h := b.Build()
	s, err := NewHyperSinkless(h, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	a := model.NewAssignment(s.Instance)
	// Point every hyperedge at node 0 when it contains 0, else at its first
	// member.
	for id := 0; id < h.M(); id++ {
		target := 0
		if !h.Contains(id, 0) {
			target = h.Edge(id)[0]
		}
		a.Fix(s.EdgeVar[id], memberIndex(h.Edge(id), target))
	}
	sinks := s.Sinks(a)
	if len(sinks) == 0 || sinks[0] != 0 {
		t.Fatalf("sinks = %v, want node 0 among them", sinks)
	}
	if got := s.HeadOf(0, a); got != 0 {
		t.Fatalf("HeadOf(0) = %d", got)
	}
}

func TestHyperSinklessValidation(t *testing.T) {
	b := hypergraph.NewBuilder(4)
	if err := b.AddEdge(0, 1); err != nil { // rank-2 edge
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := NewHyperSinkless(b.Build(), 0.4); err == nil {
		t.Fatal("non-3-uniform hypergraph should be rejected")
	}
	r := prng.New(2)
	h, err := hypergraph.RandomRegularRank3(9, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHyperSinkless(h, 0); err == nil {
		t.Fatal("slack 0 should be rejected")
	}
}

func TestThreeOrientationsProbability(t *testing.T) {
	r := prng.New(3)
	h, err := hypergraph.RandomRegularRank3(12, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	to, err := NewThreeOrientations(h)
	if err != nil {
		t.Fatal(err)
	}
	// Every node has degree 2: p = 3q^2 - 2q^3 with q = 1/9.
	q := 1.0 / 9
	want := 3*q*q - 2*q*q*q
	p := to.Instance.P()
	if math.Abs(p-want) > 1e-12 {
		t.Fatalf("p = %v, want %v", p, want)
	}
	ok, margin := to.Instance.ExponentialCriterion()
	if !ok {
		t.Fatalf("criterion should hold for deg 2, margin = %v", margin)
	}
	if to.Instance.Rank() != 3 {
		t.Fatalf("rank = %d", to.Instance.Rank())
	}
}

func TestThreeOrientationsClosedFormMatchesEnumeration(t *testing.T) {
	// Rebuild the same events without the closed form and compare
	// conditional probabilities on random partial assignments.
	b := hypergraph.NewBuilder(4)
	if err := b.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	h := b.Build()
	to, err := NewThreeOrientations(h)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the closed forms by rebuilding the instance with predicates only.
	stripped := model.NewBuilder()
	for v := 0; v < to.Instance.NumVars(); v++ {
		stripped.AddVariable(to.Instance.Var(v).Dist, "")
	}
	for e := 0; e < to.Instance.NumEvents(); e++ {
		ev := to.Instance.Event(e)
		stripped.AddEvent(ev.Scope, ev.Occurs, nil, "")
	}
	enumInst := stripped.MustBuild()

	r := prng.New(7)
	for trial := 0; trial < 30; trial++ {
		a1 := model.NewAssignment(to.Instance)
		a2 := model.NewAssignment(enumInst)
		for v := 0; v < to.Instance.NumVars(); v++ {
			if r.Bool() {
				val := r.Intn(27)
				a1.Fix(v, val)
				a2.Fix(v, val)
			}
		}
		for e := 0; e < to.Instance.NumEvents(); e++ {
			got := to.Instance.CondProb(e, a1)
			want := enumInst.CondProb(e, a2)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d event %d: closed form %v != enumeration %v", trial, e, got, want)
			}
		}
	}
}

func TestThreeOrientationsSinkCount(t *testing.T) {
	b := hypergraph.NewBuilder(5)
	if err := b.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 3, 4); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 3, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 4, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 4, 0); err != nil {
		t.Fatal(err)
	}
	to, err := NewThreeOrientations(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	a := model.NewAssignment(to.Instance)
	// Encode all three heads towards node 0's member index in edges
	// containing 0 (edges 0, 1, 4), elsewhere member 0.
	for id := 0; id < to.Hyper.M(); id++ {
		idx := 0
		if to.Hyper.Contains(id, 0) {
			idx = memberIndex(to.Hyper.Edge(id), 0)
		}
		val := idx + 3*idx + 9*idx // same head in all three orientations
		a.Fix(to.EdgeVar[id], val)
	}
	if got := to.SinkCount(0, a); got != 3 {
		t.Fatalf("SinkCount(0) = %d, want 3", got)
	}
	viol := to.Violations(a)
	found := false
	for _, v := range viol {
		if v == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("node 0 missing from violations %v", viol)
	}
}

func TestThreeOrientationsRejectsLowDegree(t *testing.T) {
	b := hypergraph.NewBuilder(3)
	if err := b.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := NewThreeOrientations(b.Build()); err == nil {
		t.Fatal("degree-1 nodes should be rejected")
	}
}

func TestWeakSplittingParams(t *testing.T) {
	r := prng.New(11)
	adj, err := RandomBiregular(10, 3, 10, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWeakSplitting(adj, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	p := w.Instance.P()
	want := math.Pow(16, -2) // 16^(1-k), k = 3
	if math.Abs(p-want) > 1e-12 {
		t.Fatalf("p = %v, want %v", p, want)
	}
	if w.Instance.Rank() > 3 {
		t.Fatalf("rank = %d", w.Instance.Rank())
	}
	ok, margin := w.Instance.ExponentialCriterion()
	if !ok {
		t.Fatalf("criterion should hold, margin = %v", margin)
	}
}

func TestWeakSplittingClosedFormMatchesEnumeration(t *testing.T) {
	adj := [][]int{{0, 1, 2}, {1, 2, 3}, {0, 2, 3}}
	w, err := NewWeakSplitting(adj, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	stripped := model.NewBuilder()
	for v := 0; v < w.Instance.NumVars(); v++ {
		stripped.AddVariable(w.Instance.Var(v).Dist, "")
	}
	for e := 0; e < w.Instance.NumEvents(); e++ {
		ev := w.Instance.Event(e)
		stripped.AddEvent(ev.Scope, ev.Occurs, nil, "")
	}
	enumInst := stripped.MustBuild()
	r := prng.New(13)
	for trial := 0; trial < 40; trial++ {
		a1 := model.NewAssignment(w.Instance)
		a2 := model.NewAssignment(enumInst)
		for v := 0; v < w.Instance.NumVars(); v++ {
			if r.Bool() {
				val := r.Intn(4)
				a1.Fix(v, val)
				a2.Fix(v, val)
			}
		}
		for e := 0; e < w.Instance.NumEvents(); e++ {
			got := w.Instance.CondProb(e, a1)
			want := enumInst.CondProb(e, a2)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d event %d: closed form %v != enumeration %v", trial, e, got, want)
			}
		}
	}
}

func TestWeakSplittingMonochromatic(t *testing.T) {
	adj := [][]int{{0, 1}, {1, 2}}
	w, err := NewWeakSplitting(adj, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := model.NewAssignment(w.Instance)
	a.Fix(w.UVar[0], 1)
	a.Fix(w.UVar[1], 1)
	a.Fix(w.UVar[2], 2)
	mono := w.Monochromatic(a)
	if len(mono) != 1 || mono[0] != 0 {
		t.Fatalf("monochromatic = %v, want [0]", mono)
	}
	if got := w.ColorOf(2, a); got != 2 {
		t.Fatalf("ColorOf(2) = %d", got)
	}
}

func TestWeakSplittingValidation(t *testing.T) {
	if _, err := NewWeakSplitting([][]int{{0}}, 1, 16); err == nil {
		t.Fatal("single-neighbour V-node should be rejected")
	}
	if _, err := NewWeakSplitting([][]int{{0, 0}}, 1, 16); err == nil {
		t.Fatal("duplicate neighbour should be rejected")
	}
	if _, err := NewWeakSplitting([][]int{{0, 5}}, 2, 16); err == nil {
		t.Fatal("out-of-range U-node should be rejected")
	}
	// U-node 0 appears in four lists: r = 4 > 3.
	adj := [][]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}}
	if _, err := NewWeakSplitting(adj, 5, 16); err == nil {
		t.Fatal("U-degree 4 should be rejected")
	}
	if _, err := NewWeakSplitting([][]int{{0, 1}}, 2, 1); err == nil {
		t.Fatal("palette of 1 should be rejected")
	}
}

func TestRandomBiregular(t *testing.T) {
	r := prng.New(17)
	adj, err := RandomBiregular(12, 3, 9, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(adj) != 12 {
		t.Fatalf("got %d V-nodes", len(adj))
	}
	uDeg := make([]int, 9)
	for v, nbrs := range adj {
		if len(nbrs) != 3 {
			t.Fatalf("V-node %d degree %d", v, len(nbrs))
		}
		seen := make(map[int]bool)
		for _, u := range nbrs {
			if seen[u] {
				t.Fatalf("V-node %d has duplicate neighbour %d", v, u)
			}
			seen[u] = true
			uDeg[u]++
		}
	}
	for u, d := range uDeg {
		if d != 4 {
			t.Fatalf("U-node %d degree %d, want 4", u, d)
		}
	}
	if _, err := RandomBiregular(3, 2, 4, 2, r); err == nil {
		t.Fatal("stub mismatch should be rejected")
	}
}

func TestHyperSinklessMixed(t *testing.T) {
	b := hypergraph.NewBuilder(6)
	if err := b.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(3, 4, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(5, 0); err != nil {
		t.Fatal(err)
	}
	h := b.Build()
	s, err := NewHyperSinklessMixed(h, 3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if s.Instance.Rank() != 3 {
		t.Fatalf("rank = %d", s.Instance.Rank())
	}
	// Heads decode correctly for both sizes, including the free value.
	a := model.NewAssignment(s.Instance)
	a.Fix(s.EdgeVar[0], 1) // triangle {0,1,2} -> head 1
	a.Fix(s.EdgeVar[1], 2) // pair {2,3} -> free (value k=2)
	a.Fix(s.EdgeVar[2], 0) // triangle {3,4,5} -> head 3
	a.Fix(s.EdgeVar[3], 1) // pair {0,5} -> head 5
	if got := s.HeadOf(0, a); got != 1 {
		t.Fatalf("HeadOf(0) = %d", got)
	}
	if got := s.HeadOf(1, a); got != -1 {
		t.Fatalf("HeadOf(1) = %d, want -1", got)
	}
	if got := s.HeadOf(3, a); got != 5 {
		t.Fatalf("HeadOf(3) = %d", got)
	}
	// Validation: size-1 or oversized hyperedges rejected.
	b2 := hypergraph.NewBuilder(3)
	if err := b2.AddEdge(0); err != nil {
		t.Fatal(err)
	}
	if err := b2.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := NewHyperSinklessMixed(b2.Build(), 3, 0.7); err == nil {
		t.Fatal("size-1 hyperedge accepted")
	}
}

func TestNoisySinklessProbability(t *testing.T) {
	g := graph.Cycle(8)
	s, err := NewNoisySinkless(g, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// p = noise + (1-noise)·2^-2 = 0.1 + 0.9*0.25 = 0.325.
	if p := s.Instance.P(); math.Abs(p-0.325) > 1e-12 {
		t.Fatalf("p = %v, want 0.325", p)
	}
	if ok, margin := s.Instance.ExponentialCriterion(); ok || margin <= 1 {
		t.Fatalf("noisy instance must sit above the threshold, margin = %v", margin)
	}
	if s.Instance.Rank() != 2 {
		t.Fatalf("rank = %d", s.Instance.Rank())
	}
}

func TestNoisySinklessWithP(t *testing.T) {
	g := graph.Cycle(10)
	for _, p := range []float64{0.3, 0.5, 0.8} {
		s, err := NewNoisySinklessWithP(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Instance.P(); math.Abs(got-p) > 1e-12 {
			t.Fatalf("requested p=%v, got %v", p, got)
		}
	}
	if _, err := NewNoisySinklessWithP(g, 0.2); err == nil {
		t.Fatal("p below 2^-deg accepted")
	}
	if _, err := NewNoisySinklessWithP(graph.Path(4), 0.5); err == nil {
		t.Fatal("irregular graph accepted")
	}
}

func TestNoisySinklessClosedFormMatchesEnumeration(t *testing.T) {
	g := graph.Cycle(5)
	s, err := NewNoisySinkless(g, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	stripped := model.NewBuilder()
	for v := 0; v < s.Instance.NumVars(); v++ {
		stripped.AddVariable(s.Instance.Var(v).Dist, "")
	}
	for e := 0; e < s.Instance.NumEvents(); e++ {
		ev := s.Instance.Event(e)
		stripped.AddEvent(ev.Scope, ev.Occurs, nil, "")
	}
	enumInst := stripped.MustBuild()
	r := prng.New(77)
	for trial := 0; trial < 40; trial++ {
		a1 := model.NewAssignment(s.Instance)
		a2 := model.NewAssignment(enumInst)
		for v := 0; v < s.Instance.NumVars(); v++ {
			if r.Bool() {
				val := r.Intn(s.Instance.Var(v).Dist.Size())
				a1.Fix(v, val)
				a2.Fix(v, val)
			}
		}
		for e := 0; e < s.Instance.NumEvents(); e++ {
			got := s.Instance.CondProb(e, a1)
			want := enumInst.CondProb(e, a2)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d event %d: %v vs %v", trial, e, got, want)
			}
		}
	}
}

func TestSinklessBiasedCycleBalanced(t *testing.T) {
	s, err := NewSinklessBiasedCycle(9, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	// Balanced construction: every node's probability is alpha(1-alpha).
	want := 0.3 * 0.7
	a := model.NewAssignment(s.Instance)
	for e := 0; e < s.Instance.NumEvents(); e++ {
		if got := s.Instance.CondProb(e, a); math.Abs(got-want) > 1e-12 {
			t.Fatalf("event %d: p = %v, want %v", e, got, want)
		}
	}
	_, margin := s.Instance.ExponentialCriterion()
	if math.Abs(margin-4*want) > 1e-12 {
		t.Fatalf("margin = %v, want %v", margin, 4*want)
	}
}

func TestSinklessBiasedValidation(t *testing.T) {
	g := graph.Cycle(5)
	if _, err := NewSinklessBiased(g, 0, nil); err == nil {
		t.Fatal("alpha 0 accepted")
	}
	if _, err := NewSinklessBiased(g, 1, nil); err == nil {
		t.Fatal("alpha 1 accepted")
	}
	if _, err := NewSinklessBiased(g, 0.4, []int{0}); err == nil {
		t.Fatal("wrong head count accepted")
	}
	heads := make([]int, g.M())
	for i := range heads {
		heads[i] = 4 // node 4 is not an endpoint of every edge
	}
	if _, err := NewSinklessBiased(g, 0.4, heads); err == nil {
		t.Fatal("non-endpoint head accepted")
	}
	// Default heads (nil) work.
	s, err := NewSinklessBiased(g, 0.4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Instance.NumVars() != g.M() {
		t.Fatal("variable count wrong")
	}
	// Isolated node rejected.
	b := graph.NewBuilder(3)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSinklessBiased(b.Build(), 0.4, nil); err == nil {
		t.Fatal("degree-0 node accepted")
	}
}

func TestRandomConjunctionCalibration(t *testing.T) {
	r := prng.New(91)
	h, err := hypergraph.RandomRegularRank3(18, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRandomConjunction(h, 3, 0.8, r)
	if err != nil {
		t.Fatal(err)
	}
	// Every event's probability must equal margin·2^-d_v exactly.
	dg := rc.Instance.DependencyGraph()
	a := model.NewAssignment(rc.Instance)
	for e := 0; e < rc.Instance.NumEvents(); e++ {
		want := 0.8 * math.Pow(2, -float64(dg.Degree(e)))
		if got := rc.Instance.CondProb(e, a); math.Abs(got-want) > 1e-12 {
			t.Fatalf("event %d: p=%v, want %v", e, got, want)
		}
	}
	// The per-event (local) criterion is exactly the calibrated margin; the
	// coarser symmetric global criterion can exceed 1 on irregular degrees,
	// which is precisely why the local form is the right notion.
	ok, margin := rc.Instance.LocalExponentialCriterion()
	if !ok || math.Abs(margin-0.8) > 1e-9 {
		t.Fatalf("local margin = %v, ok=%v", margin, ok)
	}
	if rc.Instance.Rank() != 3 {
		t.Fatalf("rank = %d", rc.Instance.Rank())
	}
}

func TestRandomConjunctionValidation(t *testing.T) {
	r := prng.New(93)
	h, err := hypergraph.RandomRegularRank3(9, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRandomConjunction(h, 1, 0.5, r); err == nil {
		t.Fatal("values=1 accepted")
	}
	if _, err := NewRandomConjunction(h, 3, 0, r); err == nil {
		t.Fatal("margin 0 accepted")
	}
	if _, err := NewRandomConjunction(h, 3, 1, r); err == nil {
		t.Fatal("margin 1 accepted")
	}
	// Degree-1 nodes: d_v = 2, target = margin/4; conj = 1/values; with
	// values=2 and margin 0.9: coinP = 0.9/4 / (1/2) = 0.45 < 1: fine. But
	// with values=2, deg 1, dependency degree could be 2 -> works; force
	// the failure with an impossible combination: margin high, values big
	// deg... use values=2, margin=0.99 on a dense hypergraph where some
	// node has d_v small relative to degree... Construct directly: a
	// single hyperedge (d_v = 2 for all three nodes, degree 1):
	b := hypergraph.NewBuilder(3)
	if err := b.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	// conj = 1/2, target = 0.99/4 -> coinP ≈ 0.495 < 1: still fine. The
	// overflow arm needs target > conj: margin·2^-d > values^-deg. With
	// values=2, deg=1, d=2: 0.99/4 < 1/2 — cannot trigger on uniform
	// structures where d >= deg. Verify the builder succeeds instead.
	if _, err := NewRandomConjunction(b.Build(), 2, 0.99, r); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestRandomConjunctionSolvedByAllPaths(t *testing.T) {
	// The stress family: arbitrary bad tuples, per-event margins 0.9. The
	// fixer must succeed under the LOCAL criterion even when the symmetric
	// global one fails. Degenerate hypergraphs (a node whose dependency
	// degree is too small for the calibration) are skipped.
	r := prng.New(95)
	solved := 0
	for trial := 0; trial < 12 && solved < 5; trial++ {
		h, err := hypergraph.RandomRegularRank3(15, 3, r)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := NewRandomConjunction(h, 2, 0.9, r)
		if err != nil {
			continue // calibration impossible on this topology
		}
		if ok, _ := rc.Instance.LocalExponentialCriterion(); !ok {
			t.Fatal("calibrated instance fails the local criterion")
		}
		res, err := core.FixSequential(rc.Instance, r.Perm(rc.Instance.NumVars()), core.Options{Audit: solved == 0})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.FinalViolatedEvents != 0 || res.Stats.Fallbacks != 0 {
			t.Fatalf("trial %d: %+v", trial, res.Stats)
		}
		solved++
	}
	if solved < 3 {
		t.Fatalf("only %d instances were solvable-calibratable", solved)
	}
}

// TestSinklessSharesGraph pins that every sinkless family over a graph g
// takes g itself as its instance's dependency graph: each edge variable
// affects exactly its endpoints' events, in edge order, so Build accepts
// the graph hint instead of deriving a copy.
func TestSinklessSharesGraph(t *testing.T) {
	rr, err := graph.RandomRegular(20, 3, prng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	margin, err := NewSinklessWithMargin(rr, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	biased, err := NewSinklessBiasedCycle(9, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Sinkless{"margin": margin, "biased": biased} {
		if s.Instance.DependencyGraph() != s.Graph {
			t.Errorf("%s: the dependency graph is not the instance's graph", name)
		}
	}
}

// TestSinklessGrowIsExact pins the size hint of sinklessInstance to what
// it adds: on every shape the sinkless families build, each slab and arena
// of the builder ends with its one chunk full and no hint left over.
func TestSinklessGrowIsExact(t *testing.T) {
	rr, err := graph.RandomRegular(30, 3, prng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	two := dist.Uniform(2)
	three, err := dist.New([]float64{0.45, 0.45, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	biased, err := dist.New([]float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	same := func(g *graph.Graph, d *dist.Distribution) []*dist.Distribution {
		out := make([]*dist.Distribution, g.M())
		for id := range out {
			out[id] = d
		}
		return out
	}
	mixed := same(rr, two)
	for id := 0; id < len(mixed); id += 3 {
		mixed[id] = three
	}
	for _, c := range []struct {
		name     string
		g        *graph.Graph
		edgeDist []*dist.Distribution
	}{
		{"cycle, two values", graph.Cycle(50), same(graph.Cycle(50), two)},
		{"cycle, biased", graph.Cycle(7), same(graph.Cycle(7), biased)},
		{"3-regular, three values", rr, same(rr, three)},
		{"3-regular, mixed", rr, mixed},
	} {
		b := model.NewBuilder()
		if _, _, err := sinklessInstance(b, c.g, c.edgeDist); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if slack := b.Slack(); slack != 0 {
			t.Errorf("%s: %d arena entries left unused", c.name, slack)
		}
	}
}
