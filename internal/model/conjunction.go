package model

import "repro/internal/dist"

// Conjunction describes a bad event of the frequently-occurring product
// form: the event occurs iff every scope variable takes a value from a
// per-variable "bad set". Sinkless orientation ("every incident edge points
// at me"), monochromatic-neighborhood events and many other LLL workloads
// have this shape.
//
// Its conditional probability factorizes over the scope,
//
//	Pr[E | fixed] = ∏_i ( fixed_i ? 1{vals_i ∈ S_i} : Pr[X_i ∈ S_i] ),
//
// which gives the probability engine a closed form that avoids enumeration.
type Conjunction struct {
	scope   []int
	badSets [][]bool  // badSets[i][v]: value v of scope var i is in S_i
	setProb []float64 // Pr[X_i ∈ S_i]
}

// NewConjunction builds a Conjunction over the given scope. badSets[i] lists
// the value indices of S_i for scope variable i; dists[i] is the
// distribution of scope variable i (used to precompute set probabilities).
func NewConjunction(scope []int, badSets [][]int, dists []*dist.Distribution) *Conjunction {
	return new(arenas).conjunction(scope, badSets, dists)
}

// conjunction builds a Conjunction from a's slabs and arenas: a copy of
// scope, and one mask and one set probability per scope variable.
func (a *arenas) conjunction(scope []int, badSets [][]int, dists []*dist.Distribution) *Conjunction {
	c := a.conjs.one()
	c.scope = a.ints.clone(scope)
	c.badSets = a.masks.alloc(len(scope))
	c.setProb = a.floats.alloc(len(scope))
	for i := range scope {
		mask := a.bools.alloc(dists[i].Size())
		p := 0.0
		for _, v := range badSets[i] {
			if !mask[v] {
				mask[v] = true
				p += dists[i].Prob(v)
			}
		}
		c.badSets[i] = mask
		c.setProb[i] = p
	}
	return c
}

// Scope returns the scope the conjunction was built over.
func (c *Conjunction) Scope() []int {
	return append([]int(nil), c.scope...)
}

// Bad is the defining predicate: the one a conjunction event's Occurs
// evaluates, and suitable for Event.Bad.
func (c *Conjunction) Bad(vals []int) bool {
	for i, v := range vals {
		if !c.badSets[i][v] {
			return false
		}
	}
	return true
}

// CondProb is the closed-form conditional probability: the one the
// instance uses for a conjunction event, and suitable for Event.CondProb.
func (c *Conjunction) CondProb(vals []int, fixed []bool) float64 {
	p := 1.0
	for i := range c.scope {
		if fixed[i] {
			if !c.badSets[i][vals[i]] {
				return 0
			}
			continue
		}
		p *= c.setProb[i]
	}
	return p
}

// AddConjunctionEvent registers a conjunction-shaped event on b and returns
// its identifier. dists must be the distributions of the scope variables in
// scope order. The scope is copied once: the event's Scope and the
// Conjunction share the copy. The event holds the Conjunction, not Bad and
// CondProb closures over it (see Event). Its ConjunctionSpec holds a copy
// of every bad set (nil for an empty one), so the caller may reuse scope
// and badSets.
func AddConjunctionEvent(b *Builder, scope []int, badSets [][]int, dists []*dist.Distribution, name string) int {
	c := b.mem.conjunction(scope, badSets, dists)
	id := b.addEvent(c.scope, nil, nil, name)
	spec := ConjunctionSpec{BadSets: b.mem.sets.alloc(len(badSets))}
	for i, set := range badSets {
		if len(set) > 0 {
			spec.BadSets[i] = b.mem.ints.clone(set)
		}
	}
	e := b.events[id]
	e.conj, e.Spec = c, spec
	return id
}
