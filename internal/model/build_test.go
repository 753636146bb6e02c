package model

import (
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/prng"
)

// sameGraph reports whether a and b have the same nodes, the same edges
// under the same identifiers, and the same adjacency order.
func sameGraph(a, b *graph.Graph) bool {
	if a.N() != b.N() || !slices.Equal(a.Edges(), b.Edges()) {
		return false
	}
	for v := 0; v < a.N(); v++ {
		if !slices.Equal(a.Neighbors(v), b.Neighbors(v)) || !slices.Equal(a.IncidentEdges(v), b.IncidentEdges(v)) {
			return false
		}
	}
	return true
}

// graphOf builds a graph on n nodes with the given edges, in order.
func graphOf(t *testing.T, n int, edges ...graph.Edge) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestBuildGraphHint pins when Build takes a hinted dependency graph: only
// when the hint is the graph it would derive, edge for edge. Every other
// hint is ignored, and the instance gets the graph its variable
// hypergraph gives.
func TestBuildGraphHint(t *testing.T) {
	never := func([]int) bool { return false }
	d := dist.Uniform(2)
	// build returns an instance over events events whose variables affect
	// the given event lists, in order, with g offered as its graph.
	build := func(events int, vars [][]int, g *graph.Graph) *Instance {
		b := NewBuilder()
		for range vars {
			b.AddVariable(d, "")
		}
		for e := 0; e < events; e++ {
			var scope []int
			for vid, evs := range vars {
				if slices.Contains(evs, e) {
					scope = append(scope, vid)
				}
			}
			b.AddEvent(scope, never, nil, "")
		}
		b.HintGraph(g)
		return b.MustBuild()
	}
	cycle := [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}
	tests := []struct {
		name   string
		events int
		vars   [][]int
		hint   *graph.Graph
		taken  bool
	}{
		{"matching cycle", 4, cycle, graph.Cycle(4), true},
		{"matching, with variables of rank 1", 4, [][]int{{2}, {0, 1}, {1, 2}, {3}, {2, 3}, {0, 3}}, graph.Cycle(4), true},
		{"permuted edge order", 4, cycle, graphOf(t, 4, graph.Edge{U: 1, V: 2}, graph.Edge{U: 0, V: 1}, graph.Edge{U: 2, V: 3}, graph.Edge{U: 0, V: 3}), false},
		{"a variable of rank 3", 4, [][]int{{0, 1}, {1, 2, 3}, {0, 3}}, graphOf(t, 4, graph.Edge{U: 0, V: 1}, graph.Edge{U: 0, V: 3}), false},
		{"two variables on one event pair", 3, [][]int{{0, 1}, {0, 1}, {1, 2}}, graphOf(t, 3, graph.Edge{U: 0, V: 1}, graph.Edge{U: 1, V: 2}), false},
		{"one node too many", 4, cycle, graphOf(t, 5, graph.Edge{U: 0, V: 1}, graph.Edge{U: 1, V: 2}, graph.Edge{U: 2, V: 3}, graph.Edge{U: 0, V: 3}), false},
		{"an edge too many", 4, cycle, graphOf(t, 4, graph.Edge{U: 0, V: 1}, graph.Edge{U: 1, V: 2}, graph.Edge{U: 2, V: 3}, graph.Edge{U: 0, V: 3}, graph.Edge{U: 0, V: 2}), false},
		{"an edge too few", 4, cycle, graphOf(t, 4, graph.Edge{U: 0, V: 1}, graph.Edge{U: 1, V: 2}, graph.Edge{U: 2, V: 3}), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			inst := build(tt.events, tt.vars, tt.hint)
			want := inst.VariableHypergraph().DependencyGraph()
			got := inst.DependencyGraph()
			if taken := got == tt.hint; taken != tt.taken {
				t.Fatalf("hint taken = %v, want %v", taken, tt.taken)
			}
			if !sameGraph(got, want) {
				t.Fatalf("dependency graph %v, want %v", got.Edges(), want.Edges())
			}
		})
	}
}

// TestGrowFillsExactChunks pins the size hint: a build that states its
// size fills one chunk per arena it uses, to the last entry, and a build
// with a short hint or none builds the same instance.
func TestGrowFillsExactChunks(t *testing.T) {
	d2, d3 := dist.Uniform(2), dist.Uniform(3)
	fill := func(b *Builder) {
		for i := 0; i < 3; i++ {
			b.AddVariable(d3, "")
		}
		b.AddVariable(d2, "")
		AddConjunctionEvent(b, []int{0, 3}, [][]int{{2, 0, 2}, {}}, []*dist.Distribution{d3, d2}, "c0")
		AddConjunctionEvent(b, []int{2, 1, 0}, [][]int{{1}, {0}, {2}}, []*dist.Distribution{d3, d3, d3}, "c1")
		b.AddEvent([]int{3, 1}, func(vals []int) bool { return vals[0] == vals[1] }, nil, "h")
	}
	exact := Size{Vars: 4, Events: 3, Slots: 7, BadValues: 6, Values: 14}
	b := NewBuilder()
	b.Grow(exact)
	fill(b)
	inst := b.MustBuild()
	m := &b.mem
	chunks := []struct {
		name      string
		len, cap  int
		wantLen   int
		hintsLeft int
	}{
		{"vars", len(m.vars.buf), cap(m.vars.buf), 4, m.vars.hint},
		{"events", len(m.events.buf), cap(m.events.buf), 3, m.events.hint},
		{"conjs", len(m.conjs.buf), cap(m.conjs.buf), 2, m.conjs.hint},
		{"ints", len(m.ints.buf), cap(m.ints.buf), 13, m.ints.hint},
		{"bools", len(m.bools.buf), cap(m.bools.buf), 14, m.bools.hint},
		{"floats", len(m.floats.buf), cap(m.floats.buf), 5, m.floats.hint},
		{"masks", len(m.masks.buf), cap(m.masks.buf), 5, m.masks.hint},
		{"sets", len(m.sets.buf), cap(m.sets.buf), 5, m.sets.hint},
	}
	for _, c := range chunks {
		if c.len != c.wantLen || c.hintsLeft != 0 {
			t.Errorf("%s: %d entries used, hint %d left; want %d used, none left", c.name, c.len, c.hintsLeft, c.wantLen)
		}
	}
	// Only the conjunction arenas are over-sized by the exact hint: they
	// take one slot per event and scope entry, and the AddEvent event
	// uses none.
	for _, c := range chunks {
		want := c.wantLen
		switch c.name {
		case "conjs":
			want = exact.Events
		case "floats", "masks", "sets":
			want = exact.Slots
		}
		if c.cap != want {
			t.Errorf("%s: chunk of %d entries, want %d", c.name, c.cap, want)
		}
	}
	// Slack counts those unused entries: one Conjunction, and two scope
	// entries in each of the three per-slot arenas.
	if got, want := b.Slack(), 1+3*2; got != want {
		t.Errorf("slack %d, want %d", got, want)
	}
	for _, s := range []Size{{}, {Vars: 1, Events: 1, Slots: 1, BadValues: 1, Values: 1}} {
		b := NewBuilder()
		b.Grow(s)
		fill(b)
		if got := b.MustBuild(); !sameInstance(got, inst) {
			t.Errorf("hint %+v built a different instance", s)
		}
	}
}

// sameInstance reports whether a and b have the same variables, scopes,
// specs, dependency graph and unconditional event probabilities.
func sameInstance(a, b *Instance) bool {
	if a.NumVars() != b.NumVars() || a.NumEvents() != b.NumEvents() || !sameGraph(a.DependencyGraph(), b.DependencyGraph()) {
		return false
	}
	for v := 0; v < a.NumVars(); v++ {
		if !slices.Equal(a.Var(v).Events, b.Var(v).Events) {
			return false
		}
	}
	ea, eb := NewAssignment(a), NewAssignment(b)
	for e := 0; e < a.NumEvents(); e++ {
		if !slices.Equal(a.Event(e).Scope, b.Event(e).Scope) || a.CondProb(e, ea) != b.CondProb(e, eb) {
			return false
		}
	}
	return true
}

// TestCountViolatedAllocatesOnce pins CountViolated to one scratch slice
// per call, whatever the number of events.
func TestCountViolatedAllocatesOnce(t *testing.T) {
	inst := randomInstance(5, 8, 12)
	a := NewAssignment(inst)
	for v := 0; v < inst.NumVars(); v++ {
		a.Fix(v, 1)
	}
	want := 0
	for e := 0; e < inst.NumEvents(); e++ {
		if bad, err := inst.Violated(e, a); err != nil {
			t.Fatal(err)
		} else if bad {
			want++
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if got, err := inst.CountViolated(a); err != nil || got != want {
			t.Fatalf("CountViolated = %d, %v; want %d", got, err, want)
		}
	})
	if allocs > 1 {
		t.Fatalf("CountViolated allocates %.0f times per call, want 1", allocs)
	}
}

// fuzzBytes hands out a fuzz input one byte at a time, and zeros once it
// is spent.
type fuzzBytes []byte

func (d *fuzzBytes) next() int {
	if len(*d) == 0 {
		return 0
	}
	x := (*d)[0]
	*d = (*d)[1:]
	return int(x)
}

// fuzzBuilder decodes data into a builder of a small instance: 1–8
// variables of 1–4 values with byte-weighted probabilities, and 0–7 events
// over scopes of 1–4 distinct variables in any order, each a conjunction
// (bad sets of 0–3 values, repeats and any order allowed), an all-equal
// event or a hand-written predicate. Variables may affect no event, and
// several may affect the same events.
func fuzzBuilder(data []byte) (*Builder, []*dist.Distribution) {
	in := fuzzBytes(data)
	b := NewBuilder()
	dists := make([]*dist.Distribution, 1+in.next()%8)
	for i := range dists {
		probs := make([]float64, 1+in.next()%4)
		sum := 0.0
		for j := range probs {
			probs[j] = float64(1 + in.next()%4)
			sum += probs[j]
		}
		for j := range probs {
			probs[j] /= sum
		}
		dists[i] = dist.MustNew(probs)
		b.AddVariable(dists[i], "")
	}
	perm := make([]int, len(dists))
	for e, events := 0, in.next()%8; e < events; e++ {
		for i := range perm {
			perm[i] = i
		}
		scope := perm[:1+in.next()%min(4, len(perm))]
		scopeDists := make([]*dist.Distribution, len(scope))
		for i := range scope {
			j := i + in.next()%(len(perm)-i)
			perm[i], perm[j] = perm[j], perm[i]
			scopeDists[i] = dists[scope[i]]
		}
		switch in.next() % 3 {
		case 0:
			badSets := make([][]int, len(scope))
			for i := range badSets {
				for k := in.next() % 4; k > 0; k-- {
					badSets[i] = append(badSets[i], in.next()%scopeDists[i].Size())
				}
			}
			AddConjunctionEvent(b, scope, badSets, scopeDists, "conj")
		case 1:
			AddAllEqualEvent(b, scope, scopeDists, "equal")
		default:
			salt := in.next()
			b.AddEvent(scope, func(vals []int) bool {
				h := salt
				for _, v := range vals {
					h = 31*h + v
				}
				return h%3 == 0
			}, nil, "hand")
		}
	}
	return b, dists
}

// fuzzHints are the graphs FuzzBuildMatchesReference offers Build, made
// from the reference graph ref: none, ref itself, ref with its edges in
// reverse order, ref with one more node, ref without its last edge, and
// ref with one more edge. Build must derive ref whichever it gets.
func fuzzHints(t *testing.T, ref *graph.Graph) []*graph.Graph {
	edges := ref.Edges()
	reversed := slices.Clone(edges)
	slices.Reverse(reversed)
	hints := []*graph.Graph{nil, ref, graphOf(t, ref.N(), reversed...), graphOf(t, ref.N()+1, edges...)}
	if len(edges) > 0 {
		hints = append(hints, graphOf(t, ref.N(), edges[:len(edges)-1]...))
	}
	for u := 0; u < ref.N(); u++ {
		for v := u + 1; v < ref.N(); v++ {
			if !ref.HasEdge(u, v) {
				return append(hints, graphOf(t, ref.N(), append(edges, graph.Edge{U: u, V: v})...))
			}
		}
	}
	return hints
}

// FuzzBuildMatchesReference checks Build against the reference
// derivations on random small instances: every Events list against a
// scan of the scopes, the dependency graph (with each hint of fuzzHints)
// against VariableHypergraph().DependencyGraph(), and every event's value
// and conditional probability against NewConjunction over its spec for a
// conjunction event, and against its own predicate for any other.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, dists := fuzzBuilder(data)
		ref, err := b.Build()
		if err != nil {
			t.Fatalf("decoded instance does not build: %v", err)
		}
		want := ref.VariableHypergraph().DependencyGraph()
		for _, hint := range fuzzHints(t, want) {
			b, _ := fuzzBuilder(data)
			if hint != nil {
				b.HintGraph(hint)
			}
			inst := b.MustBuild()
			if !sameGraph(inst.DependencyGraph(), want) {
				t.Fatalf("hint %v: dependency graph %v, want %v", hint != nil, inst.DependencyGraph().Edges(), want.Edges())
			}
		}
		for v := 0; v < ref.NumVars(); v++ {
			var events []int
			for e := 0; e < ref.NumEvents(); e++ {
				if slices.Contains(ref.Event(e).Scope, v) {
					events = append(events, e)
				}
			}
			if got := ref.Var(v).Events; !slices.Equal(got, events) || (got == nil) != (events == nil) {
				t.Fatalf("var %d: Events %v, want %v", v, got, events)
			}
		}
		h := fnv.New64a()
		h.Write(data)
		r := prng.New(h.Sum64())
		for trial := 0; trial < 4; trial++ {
			a, partial := NewAssignment(ref), NewAssignment(ref)
			for v, d := range dists {
				a.Fix(v, r.Intn(d.Size()))
				if r.Bool() {
					partial.Fix(v, a.Value(v))
				}
			}
			count := 0
			for id := 0; id < ref.NumEvents(); id++ {
				e := ref.Event(id)
				vals := make([]int, len(e.Scope))
				pvals, fixed := make([]int, len(e.Scope)), make([]bool, len(e.Scope))
				scopeDists := make([]*dist.Distribution, len(e.Scope))
				for i, v := range e.Scope {
					vals[i] = a.Value(v)
					if fixed[i] = partial.Fixed(v); fixed[i] {
						pvals[i] = vals[i]
					}
					scopeDists[i] = dists[v]
				}
				wantBad, wantP := false, math.NaN()
				if spec, ok := e.Spec.(ConjunctionSpec); ok {
					if e.Bad != nil || e.CondProb != nil {
						t.Fatalf("conjunction event %d carries Bad or CondProb", id)
					}
					c := NewConjunction(e.Scope, spec.BadSets, scopeDists)
					wantBad, wantP = c.Bad(vals), c.CondProb(pvals, fixed)
				} else {
					wantBad = e.Bad(vals)
					if e.CondProb != nil {
						wantP = e.CondProb(pvals, fixed)
					}
				}
				if got := e.Occurs(vals); got != wantBad {
					t.Fatalf("event %d (%s) at %v: Occurs %v, want %v", id, e.Name, vals, got, wantBad)
				}
				if got := ref.CondProb(id, partial); !math.IsNaN(wantP) && math.Float64bits(got) != math.Float64bits(wantP) {
					t.Fatalf("event %d (%s): CondProb %v, want %v", id, e.Name, got, wantP)
				}
				if bad, err := ref.Violated(id, a); err != nil || bad != wantBad {
					t.Fatalf("event %d: Violated = %v, %v; want %v", id, bad, err, wantBad)
				}
				if wantBad {
					count++
				}
			}
			if got, err := ref.CountViolated(a); err != nil || got != count {
				t.Fatalf("CountViolated = %d, %v; want %d", got, err, count)
			}
		}
	})
}
