// Package model defines the representation of distributed LLL instances and
// the exact probability engine that backs the deterministic fixing
// algorithms of the paper.
//
// An Instance consists of discrete random variables (each with a finite
// distribution from internal/dist) and bad events. Every event declares its
// scope: the variables it depends on. From the instance we derive the two
// combinatorial objects of the paper:
//
//   - the dependency graph (one node per event, events adjacent iff they
//     share a variable), whose maximum degree is the LLL parameter d, and
//   - the variable hypergraph H = (V, F) (one hyperedge per variable over
//     the events it affects), whose rank is the parameter r.
//
// The engine computes exact conditional probabilities
// Pr[E | X_1 = x_1, ..., X_z = x_z] for a partially fixed assignment, either
// by enumerating the joint distribution of the still-unfixed scope variables
// or through an event-specific closed form (used by the application
// workloads and cross-checked against the enumerator in tests).
package model

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/hypergraph"
)

var (
	// ErrVarRange indicates a variable identifier outside the instance.
	ErrVarRange = errors.New("model: variable out of range")
	// ErrEmptyScope indicates an event with no variables.
	ErrEmptyScope = errors.New("model: event with empty scope")
	// ErrDuplicateVar indicates an event scope listing a variable twice.
	ErrDuplicateVar = errors.New("model: duplicate variable in scope")
	// ErrNoPredicate indicates an event added without a predicate.
	ErrNoPredicate = errors.New("model: event without a predicate")
	// ErrNotFixed indicates an operation that requires a fully fixed
	// assignment was called on a partial one.
	ErrNotFixed = errors.New("model: assignment not fully fixed")
)

// Variable is a discrete random variable of an LLL instance.
type Variable struct {
	// ID is the dense identifier of the variable within its instance.
	ID int
	// Name is an optional human-readable label.
	Name string
	// Dist is the distribution of the variable. Values are identified by
	// their index 0..Dist.Size()-1.
	Dist *dist.Distribution
	// Events lists the identifiers of the events whose scope contains this
	// variable, in ascending event order without duplicates; nil if the
	// variable affects no event. Its length is the rank of the variable.
	// The slice is shared, read-only: the variables' lists are sub-slices
	// of one array, and VariableHypergraph uses the list itself as the
	// variable's hyperedge.
	Events []int
}

// CondProbFunc is an optional closed-form conditional probability for an
// event. vals and fixed are indexed parallel to the event's scope: fixed[i]
// reports whether scope variable i is fixed and vals[i] holds its value
// index if so. The function must return
// Pr[event | the fixed scope variables have the given values].
type CondProbFunc func(vals []int, fixed []bool) float64

// Event is a bad event of an LLL instance.
//
// An event added by AddEvent (AddAllEqualEvent among them) carries its
// predicate in Bad and its optional closed form in CondProb. A conjunction
// event (AddConjunctionEvent) carries neither: it holds its Conjunction,
// whose predicate and closed form the instance evaluates. Occurs evaluates
// either kind.
type Event struct {
	// ID is the dense identifier of the event within its instance.
	ID int
	// Name is an optional human-readable label.
	Name string
	// Scope lists the identifiers of the variables the event depends on.
	// The slice is shared, read-only: Build copies the scope once into an
	// array shared with other events, and a conjunction event's Scope is
	// also its Conjunction's scope.
	Scope []int
	// Bad is the defining predicate of an AddEvent event: it receives the
	// value indices of the scope variables (parallel to Scope) and reports
	// whether the bad event occurs. The slice is scratch: a predicate must
	// not keep it. Bad is nil for a conjunction event.
	Bad func(vals []int) bool
	// CondProb, if non-nil, is a closed-form conditional probability that
	// the engine uses instead of enumeration. It must agree with Bad. It
	// is nil for a conjunction event.
	CondProb CondProbFunc
	// Spec, if non-nil, is a serializable description of the event (a
	// ConjunctionSpec or AllEqualSpec); events built by the helper
	// families carry one, hand-written predicates do not.
	Spec any

	conj *Conjunction // a conjunction event's predicate and closed form
}

// Occurs reports whether the event occurs when its scope variables take
// the value indices vals (parallel to Scope): the Conjunction's predicate
// for a conjunction event, Bad for any other.
func (e *Event) Occurs(vals []int) bool {
	if e.conj != nil {
		return e.conj.Bad(vals)
	}
	return e.Bad(vals)
}

// Instance is an immutable LLL instance.
type Instance struct {
	vars   []*Variable
	events []*Event

	depGraph *graph.Graph
}

// Builder accumulates variables and events and produces an Instance.
//
// A Builder allocates per chunk, not per variable or event: the Variable
// and Event structs come from slabs, and scopes, bad sets and the
// conjunction tables from arenas, all owned by the Builder and handed to
// the instance it builds. Nothing is pooled or shared between builders,
// so builders run concurrently without coordination.
type Builder struct {
	vars   []*Variable
	events []*Event
	err    error

	mem arenas
	// stamp[v] is 1 + the identifier of the last event whose scope was
	// checked to hold variable v: the duplicate check of AddEvent.
	stamp []int
	// hint is the dependency graph offered by HintGraph, if any.
	hint *graph.Graph
}

// NewBuilder returns an empty instance builder.
func NewBuilder() *Builder { return &Builder{} }

// Size is a Builder size hint (see Grow): how much a build adds in all.
type Size struct {
	// Vars and Events count the variables and the events.
	Vars, Events int
	// Slots counts the scope entries, summed over the events.
	Slots int
	// BadValues and Values sum, over the scope entries of the conjunction
	// events, the length of the entry's bad set and the number of values
	// of the entry's variable.
	BadValues, Values int
}

// Grow reserves room for s more, like graph.Builder.Grow: the Variable and
// Event lists, and the next chunk of each slab and arena, hold exactly
// what s counts, so a build that states its size allocates one chunk per
// arena it uses. A conjunction arena takes its chunk only once a
// conjunction event is added. A short hint costs extra chunks, never
// correctness; Slack shows how far a hint missed.
func (b *Builder) Grow(s Size) {
	b.vars = slices.Grow(b.vars, s.Vars)
	b.events = slices.Grow(b.events, s.Events)
	b.mem.vars.grow(s.Vars)
	b.mem.events.grow(s.Events)
	b.mem.conjs.grow(s.Events)
	b.mem.ints.grow(s.Slots + s.BadValues)
	b.mem.floats.grow(s.Slots)
	b.mem.masks.grow(s.Slots)
	b.mem.sets.grow(s.Slots)
	b.mem.bools.grow(s.Values)
}

// Slack returns the slab and arena entries the builder holds but has not
// handed out: the unused tail of each current chunk, plus the entries of
// any Grow hint that no request has taken up. A build of conjunction
// events whose Grow counted exactly what it then added ends with 0.
func (b *Builder) Slack() int {
	m := &b.mem
	return m.vars.slack() + m.events.slack() + m.conjs.slack() + m.ints.slack() +
		m.bools.slack() + m.floats.slack() + m.masks.slack() + m.sets.slack()
}

// HintGraph offers g as the instance's dependency graph. Build takes g
// itself when the instance has one event per node of g and its variables
// of rank 2 affect exactly g's edges, in edge order (the i-th such
// variable affects the endpoints of edge i), with no variable of rank 3
// or more; that is the graph Build would derive, edge for edge. Otherwise
// Build ignores g and derives the graph.
func (b *Builder) HintGraph(g *graph.Graph) { b.hint = g }

// AddVariable registers a variable with the given distribution and returns
// its identifier.
func (b *Builder) AddVariable(d *dist.Distribution, name string) int {
	id := len(b.vars)
	v := b.mem.vars.one()
	*v = Variable{ID: id, Name: name, Dist: d}
	b.vars = append(b.vars, v)
	return id
}

// AddEvent registers a bad event over the given scope. bad receives value
// indices parallel to scope and must not be nil. condProb may be nil.
// AddEvent returns the event identifier; scope errors and a nil bad are
// deferred to Build.
func (b *Builder) AddEvent(scope []int, bad func(vals []int) bool, condProb CondProbFunc, name string) int {
	id := b.addEvent(b.mem.ints.clone(scope), bad, condProb, name)
	if bad == nil && b.err == nil {
		b.err = fmt.Errorf("%w: event %d (%s)", ErrNoPredicate, id, name)
	}
	return id
}

// addEvent is AddEvent over a scope the event may keep as is.
func (b *Builder) addEvent(scope []int, bad func(vals []int) bool, condProb CondProbFunc, name string) int {
	id := len(b.events)
	e := b.mem.events.one()
	*e = Event{
		ID:       id,
		Name:     name,
		Scope:    scope,
		Bad:      bad,
		CondProb: condProb,
	}
	b.events = append(b.events, e)
	if b.err == nil {
		if len(scope) == 0 {
			b.err = fmt.Errorf("%w: event %d (%s)", ErrEmptyScope, id, name)
			return id
		}
		if len(b.stamp) < len(b.vars) {
			b.stamp = append(b.stamp, make([]int, len(b.vars)-len(b.stamp))...)
		}
		for _, v := range scope {
			if v < 0 || v >= len(b.vars) {
				b.err = fmt.Errorf("%w: event %d references variable %d", ErrVarRange, id, v)
				return id
			}
			if b.stamp[v] == id+1 {
				b.err = fmt.Errorf("%w: event %d, variable %d", ErrDuplicateVar, id, v)
				return id
			}
			b.stamp[v] = id + 1
		}
	}
	return id
}

// Build validates and finalizes the instance.
//
// The variables' Events lists are sub-slices of one array, filled in
// event order, so each is ascending and (scopes being duplicate-free)
// duplicate-free. The dependency graph is the graph offered by HintGraph
// when it matches, and is otherwise derived from the Events lists.
func (b *Builder) Build() (*Instance, error) {
	if b.err != nil {
		return nil, b.err
	}
	hypergraph.Incidence(len(b.vars), len(b.events), func(id int) []int { return b.events[id].Scope },
		func(vid int, events []int) { b.vars[vid].Events = events })
	return &Instance{vars: b.vars, events: b.events, depGraph: b.dependencyGraph()}, nil
}

// dependencyGraph returns the hinted graph when the instance is rank 2
// over it, and otherwise derives the graph from the variables' Events
// lists: that of the variable hypergraph.
func (b *Builder) dependencyGraph() *graph.Graph {
	if b.hint != nil && b.rank2Over(b.hint) {
		return b.hint
	}
	return hypergraph.DependencyGraphOf(len(b.events), len(b.vars), func(vid int) []int { return b.vars[vid].Events })
}

// rank2Over reports whether the derived dependency graph would be g edge
// for edge: g has one node per event, no variable affects three or more
// events, and the i-th variable of rank 2 affects exactly the endpoints of
// g's edge i. Graph edges are simple, so no pair repeats, and both graphs
// sort adjacency by neighbour. It is O(vars) and allocates nothing.
func (b *Builder) rank2Over(g *graph.Graph) bool {
	if g.N() != len(b.events) {
		return false
	}
	k := 0
	for _, v := range b.vars {
		switch len(v.Events) {
		case 0, 1:
		case 2:
			if k == g.M() {
				return false
			}
			if e := g.Edge(k); v.Events[0] != e.U || v.Events[1] != e.V {
				return false
			}
			k++
		default:
			return false
		}
	}
	return k == g.M()
}

// MustBuild is Build but panics on error; for statically valid construction.
func (b *Builder) MustBuild() *Instance {
	inst, err := b.Build()
	if err != nil {
		panic(err)
	}
	return inst
}

// NumVars returns the number of variables.
func (inst *Instance) NumVars() int { return len(inst.vars) }

// NumEvents returns the number of events.
func (inst *Instance) NumEvents() int { return len(inst.events) }

// Var returns the variable with identifier id. The variable is shared
// with the instance; treat it and its Events as read-only.
func (inst *Instance) Var(id int) *Variable { return inst.vars[id] }

// Event returns the event with identifier id. The event is shared with
// the instance; treat it and its Scope as read-only.
func (inst *Instance) Event(id int) *Event { return inst.events[id] }

// DependencyGraph returns the dependency graph over events. The returned
// graph is shared and immutable.
func (inst *Instance) DependencyGraph() *graph.Graph { return inst.depGraph }

// VariableHypergraph returns the hypergraph H = (V, F) with one hyperedge
// per (event-affecting) variable, built on each call: the instance keeps
// only the variables' Events lists, and each hyperedge is such a list
// itself (shared, read-only). Note: hyperedge identifiers do NOT equal
// variable identifiers when some variables affect no event; use
// Var(id).Events for per-variable scopes instead.
func (inst *Instance) VariableHypergraph() *hypergraph.Hypergraph {
	hb := hypergraph.NewBuilder(len(inst.events))
	for _, v := range inst.vars {
		if len(v.Events) == 0 {
			continue
		}
		if err := hb.AddOwnedEdge(v.Events); err != nil {
			panic(err) // Events lists are ascending, distinct and in range
		}
	}
	return hb.Build()
}

// D returns the LLL dependency parameter d: the maximum degree of the
// dependency graph.
func (inst *Instance) D() int { return inst.depGraph.MaxDegree() }

// Rank returns r: the maximum number of events any variable affects.
func (inst *Instance) Rank() int {
	r := 0
	for _, v := range inst.vars {
		if len(v.Events) > r {
			r = len(v.Events)
		}
	}
	return r
}

// P returns the symmetric LLL probability bound p: the maximum, over all
// events, of the unconditional probability that the event occurs.
func (inst *Instance) P() float64 {
	a := NewAssignment(inst)
	p := 0.0
	for _, e := range inst.events {
		if q := inst.CondProb(e.ID, a); q > p {
			p = q
		}
	}
	return p
}

// Params returns (p, d, r) in one call, at the cost of one full probability
// sweep.
func (inst *Instance) Params() (p float64, d, r int) {
	return inst.P(), inst.D(), inst.Rank()
}

// ExponentialCriterion reports whether the instance satisfies the paper's
// threshold criterion p < 2^-d, and returns the margin p·2^d (which must be
// strictly below 1 for the deterministic fixers to be guaranteed to work).
func (inst *Instance) ExponentialCriterion() (ok bool, margin float64) {
	p, d, _ := inst.Params()
	margin = p * math.Pow(2, float64(d))
	return margin < 1, margin
}

// LocalExponentialCriterion reports whether the PER-EVENT form of the
// threshold criterion holds: Pr[E_v]·2^(d_v) < 1 for every event v, where
// d_v is v's own dependency degree. This is the inequality the paper's
// proofs actually use (each event's budget is 2^deg(v)); it is weaker than
// the symmetric p·2^d < 1 on irregular instances, and the fixers' guarantee
// holds under it.
func (inst *Instance) LocalExponentialCriterion() (ok bool, maxMargin float64) {
	a := NewAssignment(inst)
	for _, e := range inst.events {
		margin := inst.CondProb(e.ID, a) * math.Pow(2, float64(inst.depGraph.Degree(e.ID)))
		if margin > maxMargin {
			maxMargin = margin
		}
	}
	return maxMargin < 1, maxMargin
}

// SymmetricLLLCriterion reports whether e·p·(d+1) < 1 holds.
func (inst *Instance) SymmetricLLLCriterion() (ok bool, value float64) {
	p, d, _ := inst.Params()
	value = math.E * p * float64(d+1)
	return value < 1, value
}

// Violated reports whether event id occurs under the fully fixed assignment.
func (inst *Instance) Violated(id int, a *Assignment) (bool, error) {
	return inst.violated(id, a, make([]int, len(inst.events[id].Scope)))
}

// violated is Violated over scratch vals of at least the event's scope
// size.
func (inst *Instance) violated(id int, a *Assignment, vals []int) (bool, error) {
	e := inst.events[id]
	vals = vals[:len(e.Scope)]
	for i, vid := range e.Scope {
		if !a.Fixed(vid) {
			return false, fmt.Errorf("%w: event %d, variable %d", ErrNotFixed, id, vid)
		}
		vals[i] = a.Value(vid)
	}
	return e.Occurs(vals), nil
}

// CountViolated returns the number of events that occur under the fully
// fixed assignment a. Every event reads its values from one scratch slice.
func (inst *Instance) CountViolated(a *Assignment) (int, error) {
	maxScope := 0
	for _, e := range inst.events {
		maxScope = max(maxScope, len(e.Scope))
	}
	vals := make([]int, maxScope)
	count := 0
	for _, e := range inst.events {
		bad, err := inst.violated(e.ID, a, vals)
		if err != nil {
			return 0, err
		}
		if bad {
			count++
		}
	}
	return count, nil
}

// CondProb returns the exact probability that event id occurs, conditioned
// on the variables fixed in a (restricted to the event's scope; variables
// outside the scope are irrelevant by definition).
func (inst *Instance) CondProb(id int, a *Assignment) float64 {
	e := inst.events[id]
	vals := make([]int, len(e.Scope))
	fixed := make([]bool, len(e.Scope))
	for i, vid := range e.Scope {
		if a.Fixed(vid) {
			fixed[i] = true
			vals[i] = a.Value(vid)
		}
	}
	return inst.condProb(e, vals, fixed)
}

// condProb evaluates event e's conditional probability given the fixed
// scope positions: through its Conjunction, its CondProb, or enumeration.
func (inst *Instance) condProb(e *Event, vals []int, fixed []bool) float64 {
	switch {
	case e.conj != nil:
		return e.conj.CondProb(vals, fixed)
	case e.CondProb != nil:
		return e.CondProb(vals, fixed)
	}
	return inst.enumCondProb(e, vals, fixed)
}

// enumCondProb computes the conditional probability by enumerating the joint
// distribution of the unfixed scope variables.
func (inst *Instance) enumCondProb(e *Event, vals []int, fixed []bool) float64 {
	var free []int // scope positions that are unfixed
	for i := range e.Scope {
		if !fixed[i] {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		if e.Occurs(vals) {
			return 1
		}
		return 0
	}
	dists := make([]*dist.Distribution, len(free))
	for i, pos := range free {
		dists[i] = inst.vars[e.Scope[pos]].Dist
	}
	total := 0.0
	dist.Enumerate(dists, func(tuple []int, p float64) {
		for i, pos := range free {
			vals[pos] = tuple[i]
		}
		if e.Occurs(vals) {
			total += p
		}
	})
	return total
}

// CondProbWith returns CondProb(id, a) with variable varID additionally
// fixed to value. The assignment a is not modified. It is the quantity
// Pr[E | θ, X = y] from the paper's Inc(·,·) definition.
func (inst *Instance) CondProbWith(id int, a *Assignment, varID, value int) float64 {
	e := inst.events[id]
	vals := make([]int, len(e.Scope))
	fixed := make([]bool, len(e.Scope))
	for i, vid := range e.Scope {
		switch {
		case vid == varID:
			fixed[i] = true
			vals[i] = value
		case a.Fixed(vid):
			fixed[i] = true
			vals[i] = a.Value(vid)
		}
	}
	return inst.condProb(e, vals, fixed)
}

// Summary is a human-readable one-stop description of an instance's LLL
// parameters, used by the CLI tools and diagnostics.
type Summary struct {
	NumVars   int
	NumEvents int
	P         float64 // max event probability
	D         int     // dependency degree
	R         int     // max variable rank
	// ExpMargin is p·2^d; the deterministic guarantee needs < 1.
	ExpMargin float64
	// MTValue is e·p·(d+1); the Moser-Tardos guarantee needs < 1.
	MTValue float64
	// MaxScope is the largest event scope (variables per event).
	MaxScope int
	// MaxValues is the largest variable value-space size.
	MaxValues int
}

// Summarize computes the instance summary (one probability sweep).
func (inst *Instance) Summarize() Summary {
	p, d, r := inst.Params()
	s := Summary{
		NumVars:   inst.NumVars(),
		NumEvents: inst.NumEvents(),
		P:         p,
		D:         d,
		R:         r,
		ExpMargin: p * math.Pow(2, float64(d)),
		MTValue:   math.E * p * float64(d+1),
	}
	for _, e := range inst.events {
		if len(e.Scope) > s.MaxScope {
			s.MaxScope = len(e.Scope)
		}
	}
	for _, v := range inst.vars {
		if v.Dist.Size() > s.MaxValues {
			s.MaxValues = v.Dist.Size()
		}
	}
	return s
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("vars=%d events=%d p=%.4g d=%d r=%d p*2^d=%.4g e*p*(d+1)=%.4g maxScope=%d maxValues=%d",
		s.NumVars, s.NumEvents, s.P, s.D, s.R, s.ExpMargin, s.MTValue, s.MaxScope, s.MaxValues)
}

// Inc returns the probability increase factor of event id when variable
// varID is fixed to value, given the already-fixed assignment a:
//
//	Inc = Pr[E | θ, X = y] / Pr[E | θ].
//
// Following the paper's convention, Inc is 0 when Pr[E | θ] = 0.
func (inst *Instance) Inc(id int, a *Assignment, varID, value int) float64 {
	base := inst.CondProb(id, a)
	if base == 0 {
		return 0
	}
	return inst.CondProbWith(id, a, varID, value) / base
}
