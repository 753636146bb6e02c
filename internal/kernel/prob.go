package kernel

import "repro/internal/model"

// The fixers drive their value choices through Inc(·,·) = Pr[E | θ, X=y] /
// Pr[E | θ], two conditional-probability queries per candidate value per
// dependent event. The generic path allocates two scope-sized slices per
// query and dispatches through the event's Conjunction or CondProb; the
// kernel answers the closed-form families (Conjunction, AllEqual) straight
// from the flat tables with the exact float operation order of those, so
// every probability — and therefore every choice a fixer makes — is
// bitwise identical. Events without a compiled closed form delegate to the
// instance's own engine.

// CondProb returns Pr[event e | the variables fixed in ma], bit-identical
// to model.Instance.CondProb.
func (c *Compiled) CondProb(e int, ma *model.Assignment) float64 {
	switch c.kind[e] {
	case kindConj:
		return c.conjCondProb(e, ma, -1, 0)
	case kindAllEqual:
		return c.allEqualCondProb(e, ma, -1, 0)
	default:
		return c.inst.CondProb(e, ma)
	}
}

// CondProbWith returns CondProb(e, ma) with variable varID additionally
// fixed to value (overriding ma), bit-identical to
// model.Instance.CondProbWith. ma is not modified.
func (c *Compiled) CondProbWith(e int, ma *model.Assignment, varID, value int) float64 {
	switch c.kind[e] {
	case kindConj:
		return c.conjCondProb(e, ma, varID, value)
	case kindAllEqual:
		return c.allEqualCondProb(e, ma, varID, value)
	default:
		return c.inst.CondProbWith(e, ma, varID, value)
	}
}

// Inc returns the probability increase factor of event e when variable
// varID is fixed to value, with the paper's 0/0 := 0 convention, matching
// model.Instance.Inc bitwise.
func (c *Compiled) Inc(e int, ma *model.Assignment, varID, value int) float64 {
	base := c.CondProb(e, ma)
	if base == 0 {
		return 0
	}
	return c.CondProbWith(e, ma, varID, value) / base
}

// slotValue resolves scope slot j against ma with the optional varID
// override (varID < 0 disables it), mirroring the fixed/vals construction
// of the generic CondProb/CondProbWith entry points: the override wins even
// over a fixed variable.
func (c *Compiled) slotValue(j int32, ma *model.Assignment, varID, value int) (int, bool) {
	vid := int(c.scopeVar[j])
	switch {
	case vid == varID:
		return value, true
	case ma.Fixed(vid):
		return ma.Value(vid), true
	default:
		return 0, false
	}
}

// conjCondProb is Conjunction.CondProb over the flat tables: iterate the
// scope in order; a fixed slot outside its bad set kills the product, an
// unfixed slot multiplies its precomputed set probability.
func (c *Compiled) conjCondProb(e int, ma *model.Assignment, varID, value int) float64 {
	p := 1.0
	for j := c.scopeOff[e]; j < c.scopeOff[e+1]; j++ {
		if v, fixed := c.slotValue(j, ma, varID, value); fixed {
			if c.conjMask[j]>>uint(v)&1 == 0 {
				return 0
			}
			continue
		}
		p *= c.conjSetP[j]
	}
	return p
}

// allEqualCondProb is AllEqual.CondProb over the flat tables: find the
// common fixed value (0 on conflict); with one, multiply the unfixed
// marginals; with none, sum the all-equal products over the value space.
func (c *Compiled) allEqualCondProb(e int, ma *model.Assignment, varID, value int) float64 {
	lo, hi := c.scopeOff[e], c.scopeOff[e+1]
	common, haveCommon := 0, false
	for j := lo; j < hi; j++ {
		v, fixed := c.slotValue(j, ma, varID, value)
		if !fixed {
			continue
		}
		if haveCommon && v != common {
			return 0
		}
		common, haveCommon = v, true
	}
	if haveCommon {
		p := 1.0
		for j := lo; j < hi; j++ {
			if _, fixed := c.slotValue(j, ma, varID, value); fixed {
				continue
			}
			off, size := c.distFor(c.scopeVar[j])
			if common >= int(size) {
				return 0 // the common value is outside this variable's range
			}
			p *= c.probs[off+int32(common)]
		}
		return p
	}
	total := 0.0
	for cv := int32(0); cv < c.evAux[e]; cv++ {
		p := 1.0
		for j := lo; j < hi; j++ {
			off, size := c.distFor(c.scopeVar[j])
			if cv >= size {
				p = 0
				break
			}
			p *= c.probs[off+cv]
		}
		total += p
	}
	return total
}
