package core

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/srep"
)

// The choose* functions are the pure decision kernels of the paper's
// processes: given the conditional-probability oracle (instance + optional
// compiled kernel + partial assignment) and the current bookkeeping values, they pick a value for one
// variable and return the updated bookkeeping. Both the sequential fixer
// (FixSequential) and the distributed machines (Corollaries 1.2 and 1.4)
// call them, which guarantees the two implementations make identical
// choices from identical local views.

// chooseRank1 picks a value for a variable affecting only event u. A value
// with Inc(u, y) ≤ 1 exists because E_y[Inc(u, y)] = 1.
func chooseRank1(orc oracle, a *model.Assignment, vid, u int, opts Options) int {
	d := orc.inst.Var(vid).Dist
	bestVal, bestInc := 0, math.Inf(1)
	worstVal, worstInc := 0, math.Inf(-1)
	for y := 0; y < d.Size(); y++ {
		inc := orc.Inc(u, a, vid, y)
		if inc < bestInc {
			bestVal, bestInc = y, inc
		}
		if inc <= 1+opts.Tol && inc > worstInc {
			worstVal, worstInc = y, inc
		}
	}
	if opts.Strategy == StrategyAdversarial && !math.IsInf(worstInc, -1) {
		return worstVal
	}
	return bestVal
}

// chooseRank2 picks a value for a variable affecting events u and v, given
// the current bookkeeping values s = φ_e^u and t = φ_e^v on the dependency
// edge e = {u, v}. It returns the chosen value, the new edge values
// (ψ_e^u, ψ_e^v) with ψ_e^u + ψ_e^v ≤ s + t, and whether the float-noise
// fallback was taken. This is the weighted Theorem 1.1 step.
func chooseRank2(orc oracle, a *model.Assignment, vid, u, v int, s, t float64, opts Options) (val int, newU, newV float64, fallback bool) {
	d := orc.inst.Var(vid).Dist
	budget := s + t
	type cand struct {
		val        int
		score      float64
		incU, incV float64
	}
	// The feasible candidates are kept as values: feasible reports
	// whether first, best and worst hold one.
	var best, worst, first cand
	feasible := false
	bestAny := cand{val: 0, score: math.Inf(1)}
	for y := 0; y < d.Size(); y++ {
		c := cand{
			val:  y,
			incU: orc.Inc(u, a, vid, y),
			incV: orc.Inc(v, a, vid, y),
		}
		c.score = s*c.incU + t*c.incV
		if c.score < bestAny.score {
			bestAny = c
		}
		if c.score <= budget+opts.Tol {
			if !feasible {
				first, best, worst, feasible = c, c, c, true
			}
			if c.score < best.score {
				best = c
			}
			if c.score > worst.score {
				worst = c
			}
		}
	}
	chosen := best
	switch opts.Strategy {
	case StrategyFirst:
		chosen = first
	case StrategyAdversarial:
		chosen = worst
	}
	if !feasible {
		// Theorem 1.1 guarantees a feasible value; reaching this branch is
		// pure float noise. Use the least-violating value.
		fallback = true
		chosen = bestAny
	}
	newU = s * chosen.incU
	newV = t * chosen.incV
	if sum := newU + newV; sum > budget && sum > 0 {
		scale := budget / sum
		newU *= scale
		newV *= scale
	}
	return chosen.val, math.Min(newU, 2), math.Min(newV, 2), fallback
}

// chooseRank3 picks a value for a variable affecting events u, v, w, given
// the current representable triple
//
//	(ta, tb, tc) = (φ_e^u·φ_e'^u, φ_e^v·φ_e''^v, φ_e'^w·φ_e''^w)
//
// on the triangle edges e = {u,v}, e' = {u,w}, e” = {v,w}. It returns the
// chosen value together with the witness decomposition of the new triple
// (which supplies the six new edge values), and whether the float-noise
// fallback was taken. This is the Lemma 3.2 step.
func chooseRank3(orc oracle, a *model.Assignment, vid, u, v, w int, ta, tb, tc float64, opts Options) (val int, wit srep.Witness, fallback bool, err error) {
	d := orc.inst.Var(vid).Dist
	type cand struct {
		val        int
		ta, tb, tc float64
		score      float64
	}
	// As in chooseRank2, feasible reports whether first, best and worst
	// hold a representable candidate.
	var best, worst, first cand
	feasible := false
	var bestAny cand
	bestAnyExcess := math.Inf(1)
	for y := 0; y < d.Size(); y++ {
		c3 := cand{
			val: y,
			ta:  orc.Inc(u, a, vid, y) * ta,
			tb:  orc.Inc(v, a, vid, y) * tb,
			tc:  orc.Inc(w, a, vid, y) * tc,
		}
		c3.score = c3.ta + c3.tb + c3.tc
		if srep.IsRepresentable(c3.ta, c3.tb, c3.tc, opts.Tol) {
			if !feasible {
				first, best, worst, feasible = c3, c3, c3, true
			}
			if c3.score < best.score {
				best = c3
			}
			if c3.score > worst.score {
				worst = c3
			}
		}
		excess := math.Max(0, c3.ta+c3.tb-4)
		if c3.ta+c3.tb <= 4 {
			excess += math.Max(0, c3.tc-srep.F(math.Min(c3.ta, 4), math.Min(c3.tb, 4)))
		} else {
			excess += c3.tc
		}
		if excess < bestAnyExcess {
			bestAnyExcess = excess
			bestAny = c3
		}
	}
	chosen := best
	switch opts.Strategy {
	case StrategyFirst:
		chosen = first
	case StrategyAdversarial:
		chosen = worst
	}
	if !feasible {
		// Lemma 3.2 guarantees a feasible value; this is float noise.
		fallback = true
		bestAny.ta = math.Min(bestAny.ta, 4)
		bestAny.tb = math.Min(bestAny.tb, math.Max(0, 4-bestAny.ta))
		bestAny.tc = math.Min(bestAny.tc, srep.F(bestAny.ta, bestAny.tb))
		chosen = bestAny
	}
	wit, derr := srep.Decompose(chosen.ta, chosen.tb, chosen.tc)
	if derr != nil {
		return 0, srep.Witness{}, fallback, fmt.Errorf("core: decomposing triple for variable %d: %w", vid, derr)
	}
	return chosen.val, wit, fallback, nil
}
