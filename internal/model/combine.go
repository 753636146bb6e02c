package model

import (
	"fmt"
	"sort"

	"repro/internal/dist"
)

// This file implements the instance transformation the paper invokes twice:
// "if an edge is associated with more than one random variable we can encode
// these random variables in one new random variable" (Section 2), and
// footnote 3: "it is straightforward to reformulate the instance in a way
// that combines variables affecting the same r events". Combine merges every
// group of variables with identical affected-event sets into a single
// product variable; the transformed instance has the same events, the same
// dependency graph, the same p, d and r — but at most one variable per
// hyperedge of the variable hypergraph.

// MaxCombinedValues caps the product value-space size of one combined
// variable; Combine fails beyond it rather than building an unusably large
// distribution.
const MaxCombinedValues = 1 << 20

// Combined is the result of combining an instance's variables.
type Combined struct {
	// Instance is the transformed instance.
	Instance *Instance
	// Groups maps each combined variable to the original variable
	// identifiers it encodes, in ascending order. Singleton groups are
	// kept as-is (fresh variable, same distribution).
	Groups [][]int

	orig *Instance
	// radix[g][i] is the value-space size of Groups[g][i].
	radix [][]int
}

// Combine merges all variables of inst that affect exactly the same set of
// events into single product variables.
func Combine(inst *Instance) (*Combined, error) {
	// Group variables by their affected-event sets.
	type group struct {
		key  string
		vars []int
	}
	byKey := make(map[string]*group)
	var order []string // deterministic group ordering by first variable
	for vid := 0; vid < inst.NumVars(); vid++ {
		events := append([]int(nil), inst.Var(vid).Events...)
		sort.Ints(events)
		key := fmt.Sprint(events)
		g, ok := byKey[key]
		if !ok {
			g = &group{key: key}
			byKey[key] = g
			order = append(order, key)
		}
		g.vars = append(g.vars, vid)
	}

	c := &Combined{orig: inst}
	b := NewBuilder()
	newVarOf := make([]int, inst.NumVars()) // original var -> combined var
	for _, key := range order {
		g := byKey[key]
		size := 1
		for _, vid := range g.vars {
			k := inst.Var(vid).Dist.Size()
			if size > MaxCombinedValues/k {
				return nil, fmt.Errorf("model: combined variable for group %v exceeds %d values", g.vars, MaxCombinedValues)
			}
			size *= k
		}
		var d *dist.Distribution
		if len(g.vars) == 1 {
			d = inst.Var(g.vars[0]).Dist
		} else {
			probs := make([]float64, size)
			radix := make([]int, len(g.vars))
			for i, vid := range g.vars {
				radix[i] = inst.Var(vid).Dist.Size()
			}
			for val := 0; val < size; val++ {
				p := 1.0
				v := val
				for i, vid := range g.vars {
					p *= inst.Var(vid).Dist.Prob(v % radix[i])
					v /= radix[i]
				}
				probs[val] = p
			}
			var err error
			d, err = dist.New(probs)
			if err != nil {
				return nil, fmt.Errorf("model: building product distribution for group %v: %w", g.vars, err)
			}
		}
		newID := b.AddVariable(d, fmt.Sprintf("combined%v", g.vars))
		radix := make([]int, len(g.vars))
		for i, vid := range g.vars {
			radix[i] = inst.Var(vid).Dist.Size()
			newVarOf[vid] = newID
		}
		c.Groups = append(c.Groups, append([]int(nil), g.vars...))
		c.radix = append(c.radix, radix)
	}

	// Rebuild events: each original scope decomposes into whole groups
	// (variables in one group affect identical event sets, so group
	// membership in a scope is all-or-nothing).
	for eid := 0; eid < inst.NumEvents(); eid++ {
		ev := inst.Event(eid)
		seen := make(map[int]bool)
		var newScope []int
		for _, vid := range ev.Scope {
			nv := newVarOf[vid]
			if !seen[nv] {
				seen[nv] = true
				newScope = append(newScope, nv)
			}
		}
		// Positions of each original scope variable inside the new scope's
		// decoded tuples.
		type slot struct {
			scopePos int // index into newScope
			digit    int // index within the group
		}
		slots := make([]slot, len(ev.Scope))
		for i, vid := range ev.Scope {
			nv := newVarOf[vid]
			scopePos := -1
			for j, s := range newScope {
				if s == nv {
					scopePos = j
					break
				}
			}
			digit := -1
			for j, member := range c.Groups[nv] {
				if member == vid {
					digit = j
					break
				}
			}
			slots[i] = slot{scopePos: scopePos, digit: digit}
		}
		radixes := c.radix
		groups := c.Groups
		scope := newScope
		origBad := ev.Occurs
		bad := func(vals []int) bool {
			orig := make([]int, len(slots))
			for i, s := range slots {
				v := vals[s.scopePos]
				nv := scope[s.scopePos]
				for j := 0; j < s.digit; j++ {
					v /= radixes[nv][j]
				}
				_ = groups
				orig[i] = v % radixes[nv][s.digit]
			}
			return origBad(orig)
		}
		b.AddEvent(newScope, bad, nil, ev.Name)
	}

	combined, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("model: building combined instance: %w", err)
	}
	c.Instance = combined
	return c, nil
}

// Expand translates a complete assignment of the combined instance back
// into an assignment of the original instance.
func (c *Combined) Expand(a *Assignment) *Assignment {
	out := NewAssignment(c.orig)
	for nv, group := range c.Groups {
		v := a.Value(nv)
		for i, vid := range group {
			out.Fix(vid, v%c.radix[nv][i])
			v /= c.radix[nv][i]
		}
	}
	return out
}
