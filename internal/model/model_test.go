package model

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/prng"
)

// buildPairInstance returns an instance with two fair binary variables and a
// single event "both variables are 1" (probability 1/4).
func buildPairInstance(t *testing.T) *Instance {
	t.Helper()
	b := NewBuilder()
	x := b.AddVariable(dist.Uniform(2), "x")
	y := b.AddVariable(dist.Uniform(2), "y")
	b.AddEvent([]int{x, y}, func(vals []int) bool {
		return vals[0] == 1 && vals[1] == 1
	}, nil, "both-one")
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestBuilderValidation pins each validation error's sentinel, exact
// message and order: the first invalid event wins, and within its scope
// the first variable out of range or repeated.
func TestBuilderValidation(t *testing.T) {
	never := func([]int) bool { return false }
	d := dist.Uniform(2)
	vars := func(b *Builder, n int) {
		for i := 0; i < n; i++ {
			b.AddVariable(d, "")
		}
	}
	tests := []struct {
		name  string
		build func(b *Builder)
		is    error
		want  string
	}{
		{"empty scope", func(b *Builder) {
			b.AddEvent(nil, never, nil, "e")
		}, ErrEmptyScope, "model: event with empty scope: event 0 (e)"},
		{"variable out of range", func(b *Builder) {
			vars(b, 1)
			b.AddEvent([]int{0, 1}, never, nil, "e")
		}, ErrVarRange, "model: variable out of range: event 0 references variable 1"},
		{"negative variable", func(b *Builder) {
			vars(b, 1)
			b.AddEvent([]int{-1}, never, nil, "e")
		}, ErrVarRange, "model: variable out of range: event 0 references variable -1"},
		{"variable added after the event", func(b *Builder) {
			b.AddEvent([]int{0}, never, nil, "e")
			vars(b, 1)
		}, ErrVarRange, "model: variable out of range: event 0 references variable 0"},
		{"duplicate scope variable", func(b *Builder) {
			vars(b, 2)
			b.AddEvent([]int{1, 0, 1}, never, nil, "e")
		}, ErrDuplicateVar, "model: duplicate variable in scope: event 0, variable 1"},
		{"duplicate before range", func(b *Builder) {
			vars(b, 1)
			b.AddEvent([]int{0, 0, 5}, never, nil, "e")
		}, ErrDuplicateVar, "model: duplicate variable in scope: event 0, variable 0"},
		{"range before duplicate", func(b *Builder) {
			vars(b, 1)
			b.AddEvent([]int{5, 0, 0}, never, nil, "e")
		}, ErrVarRange, "model: variable out of range: event 0 references variable 5"},
		{"first invalid event wins", func(b *Builder) {
			vars(b, 2)
			b.AddEvent([]int{0, 1}, never, nil, "ok")
			b.AddEvent([]int{1, 0, 1}, never, nil, "dup")
			b.AddEvent(nil, never, nil, "empty")
		}, ErrDuplicateVar, "model: duplicate variable in scope: event 1, variable 1"},
		{"conjunction event", func(b *Builder) {
			vars(b, 2)
			AddConjunctionEvent(b, []int{0, 1}, [][]int{{1}, {1}}, []*dist.Distribution{d, d}, "ok")
			AddConjunctionEvent(b, []int{1, 1}, [][]int{{1}, {0}}, []*dist.Distribution{d, d}, "dup")
		}, ErrDuplicateVar, "model: duplicate variable in scope: event 1, variable 1"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := NewBuilder()
			tt.build(b)
			if _, err := b.Build(); !errors.Is(err, tt.is) || err.Error() != tt.want {
				t.Fatalf("Build() error = %v, want %q", err, tt.want)
			}
		})
	}
}

// TestBuildSharesLists pins the instance memory layout: Events ascend,
// stay nil for a variable that affects no event, and are the variable's
// hyperedge itself; a conjunction event's Scope is its own copy, and its
// spec keeps a nil entry for an empty bad set.
func TestBuildSharesLists(t *testing.T) {
	d := dist.Uniform(2)
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddVariable(d, "")
	}
	scope := []int{3, 0}
	AddConjunctionEvent(b, scope, [][]int{{1}, {}}, []*dist.Distribution{d, d}, "c")
	b.AddEvent([]int{0, 3, 1}, func([]int) bool { return false }, nil, "h")
	scope[0] = 2 // the builder keeps copies
	inst := b.MustBuild()
	wantEvents := [][]int{{0, 1}, {1}, nil, {0, 1}}
	for vid, want := range wantEvents {
		got := inst.Var(vid).Events
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("var %d: Events %v, want %v", vid, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("var %d: Events %v, want %v", vid, got, want)
			}
		}
	}
	h := inst.VariableHypergraph()
	if &h.Edge(0)[0] != &inst.Var(0).Events[0] {
		t.Fatal("the variable hypergraph copied Var(0).Events")
	}
	if e := inst.Event(0); e.Scope[0] != 3 || e.Scope[1] != 0 {
		t.Fatalf("event 0 scope %v, want [3 0]", e.Scope)
	}
	spec := inst.Event(0).Spec.(ConjunctionSpec)
	if spec.BadSets[0][0] != 1 || spec.BadSets[1] != nil {
		t.Fatalf("conjunction spec %v, want [[1] nil]", spec.BadSets)
	}
}

func TestUnconditionalProbability(t *testing.T) {
	inst := buildPairInstance(t)
	a := NewAssignment(inst)
	if got := inst.CondProb(0, a); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("Pr[E] = %v, want 0.25", got)
	}
	if got := inst.P(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("P() = %v, want 0.25", got)
	}
}

func TestConditionalProbability(t *testing.T) {
	inst := buildPairInstance(t)
	a := NewAssignment(inst)
	a.Fix(0, 1)
	if got := inst.CondProb(0, a); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Pr[E | x=1] = %v, want 0.5", got)
	}
	a.Unfix(0)
	a.Fix(0, 0)
	if got := inst.CondProb(0, a); got != 0 {
		t.Fatalf("Pr[E | x=0] = %v, want 0", got)
	}
}

func TestCondProbWithDoesNotMutate(t *testing.T) {
	inst := buildPairInstance(t)
	a := NewAssignment(inst)
	got := inst.CondProbWith(0, a, 1, 1)
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("CondProbWith = %v, want 0.5", got)
	}
	if a.Fixed(1) || a.NumFixed() != 0 {
		t.Fatal("CondProbWith mutated the assignment")
	}
}

func TestIncBasics(t *testing.T) {
	inst := buildPairInstance(t)
	a := NewAssignment(inst)
	if got := inst.Inc(0, a, 0, 1); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Inc(E, x=1) = %v, want 2", got)
	}
	if got := inst.Inc(0, a, 0, 0); got != 0 {
		t.Fatalf("Inc(E, x=0) = %v, want 0", got)
	}
	// 0/0 convention: condition on x=0 so Pr[E | θ] = 0, then Inc must be 0.
	a.Fix(0, 0)
	if got := inst.Inc(0, a, 1, 1); got != 0 {
		t.Fatalf("Inc with zero base = %v, want 0", got)
	}
}

func TestViolated(t *testing.T) {
	inst := buildPairInstance(t)
	a := NewAssignment(inst)
	if _, err := inst.Violated(0, a); !errors.Is(err, ErrNotFixed) {
		t.Fatalf("Violated on partial assignment: err = %v", err)
	}
	a.Fix(0, 1)
	a.Fix(1, 1)
	bad, err := inst.Violated(0, a)
	if err != nil || !bad {
		t.Fatalf("Violated = %v, %v; want true", bad, err)
	}
	n, err := inst.CountViolated(a)
	if err != nil || n != 1 {
		t.Fatalf("CountViolated = %d, %v", n, err)
	}
}

func TestDerivedStructures(t *testing.T) {
	// Three events in a path: E0 -x- E1 -y- E2, one shared variable each.
	b := NewBuilder()
	x := b.AddVariable(dist.Uniform(2), "x")
	y := b.AddVariable(dist.Uniform(2), "y")
	b.AddEvent([]int{x}, func(v []int) bool { return v[0] == 1 }, nil, "E0")
	b.AddEvent([]int{x, y}, func(v []int) bool { return v[0] == v[1] }, nil, "E1")
	b.AddEvent([]int{y}, func(v []int) bool { return v[0] == 0 }, nil, "E2")
	inst := b.MustBuild()

	dg := inst.DependencyGraph()
	if dg.N() != 3 || dg.M() != 2 {
		t.Fatalf("dependency graph N=%d M=%d", dg.N(), dg.M())
	}
	if !dg.HasEdge(0, 1) || !dg.HasEdge(1, 2) || dg.HasEdge(0, 2) {
		t.Fatal("dependency edges wrong")
	}
	if inst.D() != 2 {
		t.Fatalf("d = %d", inst.D())
	}
	if inst.Rank() != 2 {
		t.Fatalf("r = %d", inst.Rank())
	}
	if got := inst.Var(x).Events; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("x affects %v", got)
	}
}

func TestCriteria(t *testing.T) {
	// Single event with probability 1/4 and d=0: margin = 0.25 < 1.
	b := NewBuilder()
	x := b.AddVariable(dist.Uniform(4), "x")
	b.AddEvent([]int{x}, func(v []int) bool { return v[0] == 0 }, nil, "E")
	inst := b.MustBuild()
	ok, margin := inst.ExponentialCriterion()
	if !ok || math.Abs(margin-0.25) > 1e-12 {
		t.Fatalf("exponential criterion: ok=%v margin=%v", ok, margin)
	}
	okS, val := inst.SymmetricLLLCriterion()
	if !okS || math.Abs(val-math.E*0.25) > 1e-12 {
		t.Fatalf("symmetric criterion: ok=%v val=%v", okS, val)
	}
}

// randomInstance builds a random rank<=3 instance with hash-based arbitrary
// predicates for cross-checking engine identities.
func randomInstance(seed uint64, nVars, nEvents int) *Instance {
	r := prng.New(seed)
	b := NewBuilder()
	for i := 0; i < nVars; i++ {
		k := 2 + r.Intn(2) // 2 or 3 values
		b.AddVariable(dist.Uniform(k), "")
	}
	for i := 0; i < nEvents; i++ {
		scopeSize := 1 + r.Intn(3)
		perm := r.Perm(nVars)
		scope := perm[:scopeSize]
		evSeed := r.Uint64()
		bad := func(vals []int) bool {
			h := evSeed
			for _, v := range vals {
				h = prng.Mix64(h ^ uint64(v+1))
			}
			return h%4 == 0
		}
		b.AddEvent(scope, bad, nil, "")
	}
	return b.MustBuild()
}

func TestQuickLawOfTotalProbability(t *testing.T) {
	// For any event E, variable X in its scope and partial assignment θ:
	// sum_y Pr[X=y] * Pr[E | θ, X=y] == Pr[E | θ].
	f := func(seed uint32) bool {
		inst := randomInstance(uint64(seed), 5, 4)
		r := prng.New(uint64(seed) + 1)
		a := NewAssignment(inst)
		// Fix a random subset of variables.
		for v := 0; v < inst.NumVars(); v++ {
			if r.Bool() {
				a.Fix(v, r.Intn(inst.Var(v).Dist.Size()))
			}
		}
		for eid := 0; eid < inst.NumEvents(); eid++ {
			for _, vid := range inst.Event(eid).Scope {
				if a.Fixed(vid) {
					continue
				}
				d := inst.Var(vid).Dist
				sum := 0.0
				for y := 0; y < d.Size(); y++ {
					sum += d.Prob(y) * inst.CondProbWith(eid, a, vid, y)
				}
				if math.Abs(sum-inst.CondProb(eid, a)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIncExpectationIsOne(t *testing.T) {
	// E_y[Inc(E, y)] = 1 whenever Pr[E | θ] > 0 (identity used in the proofs
	// of Theorem 1.1 and Lemma 3.9).
	f := func(seed uint32) bool {
		inst := randomInstance(uint64(seed)^0xabcdef, 5, 4)
		a := NewAssignment(inst)
		for eid := 0; eid < inst.NumEvents(); eid++ {
			if inst.CondProb(eid, a) == 0 {
				continue
			}
			for _, vid := range inst.Event(eid).Scope {
				d := inst.Var(vid).Dist
				sum := 0.0
				for y := 0; y < d.Size(); y++ {
					sum += d.Prob(y) * inst.Inc(eid, a, vid, y)
				}
				if math.Abs(sum-1) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConjunctionMatchesEnumeration(t *testing.T) {
	r := prng.New(77)
	for trial := 0; trial < 50; trial++ {
		// Build two identical instances: one with the closed form, one
		// relying on enumeration, and compare conditional probabilities.
		nVars := 4
		bClosed, bEnum := NewBuilder(), NewBuilder()
		dists := make([]*dist.Distribution, nVars)
		for i := 0; i < nVars; i++ {
			k := 2 + r.Intn(3)
			dists[i] = dist.Uniform(k)
			bClosed.AddVariable(dists[i], "")
			bEnum.AddVariable(dists[i], "")
		}
		scope := []int{0, 1, 2, 3}
		badSets := make([][]int, nVars)
		for i := range badSets {
			// Non-empty random subset of values.
			k := dists[i].Size()
			for {
				var set []int
				for v := 0; v < k; v++ {
					if r.Bool() {
						set = append(set, v)
					}
				}
				if len(set) > 0 {
					badSets[i] = set
					break
				}
			}
		}
		c := NewConjunction(scope, badSets, dists)
		AddConjunctionEvent(bClosed, scope, badSets, dists, "E")
		bEnum.AddEvent(scope, c.Bad, nil, "E")
		instClosed, instEnum := bClosed.MustBuild(), bEnum.MustBuild()

		aClosed, aEnum := NewAssignment(instClosed), NewAssignment(instEnum)
		for v := 0; v < nVars; v++ {
			if r.Bool() {
				val := r.Intn(dists[v].Size())
				aClosed.Fix(v, val)
				aEnum.Fix(v, val)
			}
		}
		got := instClosed.CondProb(0, aClosed)
		want := instEnum.CondProb(0, aEnum)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: closed form %v != enumeration %v", trial, got, want)
		}
	}
}

func TestConjunctionScopeCopy(t *testing.T) {
	scope := []int{0, 1}
	c := NewConjunction(scope, [][]int{{0}, {1}}, []*dist.Distribution{dist.Uniform(2), dist.Uniform(2)})
	scope[0] = 99
	if got := c.Scope(); got[0] == 99 {
		t.Fatal("Conjunction retained caller's scope slice")
	}
}

func TestAssignmentLifecycle(t *testing.T) {
	inst := buildPairInstance(t)
	a := NewAssignment(inst)
	if a.Complete() || a.NumFixed() != 0 {
		t.Fatal("fresh assignment should be empty")
	}
	a.Fix(0, 1)
	if !a.Fixed(0) || a.Value(0) != 1 || a.NumFixed() != 1 {
		t.Fatal("Fix did not register")
	}
	clone := a.Clone()
	a.Fix(1, 0)
	if clone.Fixed(1) {
		t.Fatal("Clone shares state with original")
	}
	if !a.Complete() {
		t.Fatal("assignment should be complete")
	}
	vals, fixed := a.Values()
	if vals[0] != 1 || !fixed[1] {
		t.Fatal("Values() wrong")
	}
}

func TestAssignmentPanics(t *testing.T) {
	inst := buildPairInstance(t)
	t.Run("double fix", func(t *testing.T) {
		a := NewAssignment(inst)
		a.Fix(0, 0)
		defer func() {
			if recover() == nil {
				t.Fatal("double Fix should panic")
			}
		}()
		a.Fix(0, 1)
	})
	t.Run("value of unfixed", func(t *testing.T) {
		a := NewAssignment(inst)
		defer func() {
			if recover() == nil {
				t.Fatal("Value of unfixed should panic")
			}
		}()
		a.Value(0)
	})
	t.Run("unfix of unfixed", func(t *testing.T) {
		a := NewAssignment(inst)
		defer func() {
			if recover() == nil {
				t.Fatal("Unfix of unfixed should panic")
			}
		}()
		a.Unfix(0)
	})
}

func BenchmarkCondProbEnumeration(b *testing.B) {
	inst := randomInstance(1, 6, 5)
	a := NewAssignment(inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for e := 0; e < inst.NumEvents(); e++ {
			_ = inst.CondProb(e, a)
		}
	}
}

func BenchmarkCondProbClosedForm(b *testing.B) {
	bb := NewBuilder()
	dists := make([]*dist.Distribution, 8)
	scope := make([]int, 8)
	badSets := make([][]int, 8)
	for i := range dists {
		dists[i] = dist.Uniform(2)
		scope[i] = bb.AddVariable(dists[i], "")
		badSets[i] = []int{1}
	}
	AddConjunctionEvent(bb, scope, badSets, dists, "E")
	inst := bb.MustBuild()
	a := NewAssignment(inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = inst.CondProb(0, a)
	}
}

func TestSummarize(t *testing.T) {
	b := NewBuilder()
	x := b.AddVariable(dist.Uniform(4), "x")
	y := b.AddVariable(dist.Uniform(2), "y")
	b.AddEvent([]int{x, y}, func(v []int) bool { return v[0] == 0 && v[1] == 1 }, nil, "E0")
	b.AddEvent([]int{y}, func(v []int) bool { return v[0] == 0 }, nil, "E1")
	inst := b.MustBuild()
	s := inst.Summarize()
	if s.NumVars != 2 || s.NumEvents != 2 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.D != 1 || s.R != 2 {
		t.Fatalf("d/r wrong: %+v", s)
	}
	if math.Abs(s.P-0.5) > 1e-12 {
		t.Fatalf("p = %v", s.P)
	}
	if math.Abs(s.ExpMargin-1.0) > 1e-12 {
		t.Fatalf("margin = %v", s.ExpMargin)
	}
	if s.MaxScope != 2 || s.MaxValues != 4 {
		t.Fatalf("scope/values wrong: %+v", s)
	}
	str := s.String()
	for _, want := range []string{"vars=2", "events=2", "d=1", "r=2"} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() missing %q: %s", want, str)
		}
	}
}
