package core

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/prng"
)

func TestPStarInitialState(t *testing.T) {
	g := graph.Cycle(5)
	ps := NewPStar(g)
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		if ps.Value(id, e.U) != 1 || ps.Value(id, e.V) != 1 {
			t.Fatalf("edge %d not initialized to 1", id)
		}
	}
	if ps.MaxEdgeSum() != 2 {
		t.Fatalf("initial MaxEdgeSum = %v", ps.MaxEdgeSum())
	}
	for v := 0; v < g.N(); v++ {
		if ps.EventBound(v) != 1 {
			t.Fatalf("initial EventBound(%d) = %v", v, ps.EventBound(v))
		}
	}
}

// TestEventBoundInPlace pins EventBound to the product of Value over
// IncidentEdges in ascending-neighbour order, bit for bit, and checks that
// it allocates nothing.
func TestEventBoundInPlace(t *testing.T) {
	r := prng.New(3)
	g, err := graph.RandomRegular(40, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	ps := NewPStar(g)
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		a := 2 * r.Float64()
		ps.Set(id, e.U, a)
		ps.Set(id, e.V, (2-a)*r.Float64())
	}
	for v := 0; v < g.N(); v++ {
		want := 1.0
		for _, id := range g.IncidentEdges(v) {
			want *= ps.Value(id, v)
		}
		if got := ps.EventBound(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("EventBound(%d) = %v, want %v", v, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { ps.EventBound(7) }); allocs != 0 {
		t.Fatalf("EventBound allocates %v times per call", allocs)
	}
}

func TestPStarSetAndBounds(t *testing.T) {
	g := graph.Cycle(4)
	ps := NewPStar(g)
	// Edge 0 = {0,1}. Push node 0's side to 2, node 1's side to 0.
	ps.Set(0, 0, 2)
	ps.Set(0, 1, 0)
	if got := ps.Value(0, 0); got != 2 {
		t.Fatalf("Value = %v", got)
	}
	// EventBound(0) multiplies over both incident edges: 2 * 1.
	if got := ps.EventBound(0); got != 2 {
		t.Fatalf("EventBound(0) = %v", got)
	}
	if got := ps.EventBound(1); got != 0 {
		t.Fatalf("EventBound(1) = %v", got)
	}
	if got := ps.MaxEventBound(); got != 2 {
		t.Fatalf("MaxEventBound = %v", got)
	}
}

func TestPStarPanicsOnNonEndpoint(t *testing.T) {
	g := graph.Cycle(4)
	ps := NewPStar(g)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ps.Value(0, 3) // edge 0 = {0,1}; node 3 is not an endpoint
}

func TestPStarAuditDetectsViolations(t *testing.T) {
	// Two events sharing a fair coin; event v: coin == v's parity.
	b := model.NewBuilder()
	x := b.AddVariable(dist.Uniform(2), "x")
	b.AddEvent([]int{x}, func(v []int) bool { return v[0] == 1 }, nil, "E0")
	b.AddEvent([]int{x}, func(v []int) bool { return v[0] == 1 }, nil, "E1")
	inst := b.MustBuild()
	g := inst.DependencyGraph()
	ps := NewPStar(g)
	a := model.NewAssignment(inst)
	base := []float64{0.5, 0.5}

	if err := ps.Audit(inst, a, base, 1e-9); err != nil {
		t.Fatalf("clean state should pass audit: %v", err)
	}

	// Violate the edge-sum constraint.
	ps.Set(0, 0, 1.5)
	ps.Set(0, 1, 1.5)
	if err := ps.Audit(inst, a, base, 1e-9); err == nil {
		t.Fatal("edge-sum violation not detected")
	}

	// Violate the probability bound: fix the coin to 1 (both events now
	// certain) while claiming φ values that bound Pr by 0.5.
	ps.Set(0, 0, 1)
	ps.Set(0, 1, 1)
	a.Fix(x, 1)
	if err := ps.Audit(inst, a, base, 1e-9); err == nil {
		t.Fatal("probability-bound violation not detected")
	}
}

func TestPStarAuditRejectsOutOfRange(t *testing.T) {
	b := model.NewBuilder()
	x := b.AddVariable(dist.Uniform(2), "x")
	b.AddEvent([]int{x}, func(v []int) bool { return v[0] == 1 }, nil, "E0")
	b.AddEvent([]int{x}, func(v []int) bool { return v[0] == 0 }, nil, "E1")
	inst := b.MustBuild()
	ps := NewPStar(inst.DependencyGraph())
	ps.Set(0, 0, 2.5)
	ps.Set(0, 1, -0.5)
	if err := ps.Audit(inst, model.NewAssignment(inst), []float64{0.5, 0.5}, 1e-9); err == nil {
		t.Fatal("out-of-range φ not detected")
	}
	ps.Set(0, 0, math.NaN())
	if err := ps.Audit(inst, model.NewAssignment(inst), []float64{0.5, 0.5}, 1e-9); err == nil {
		t.Fatal("NaN φ not detected")
	}
}
