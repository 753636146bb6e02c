package core

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/prng"
	"repro/internal/srep"
)

// chooseInstance returns an instance whose variable 0 (five values)
// affects events 0..rank-1, each a conjunction of variable 0 with a
// private three-valued variable over random non-empty bad sets, so the
// candidate values of variable 0 tie and differ in every pattern.
func chooseInstance(r *prng.Rand, rank int) *model.Instance {
	subset := func(k int) []int {
		var s []int
		for len(s) == 0 {
			for v := 0; v < k; v++ {
				if r.Bool() {
					s = append(s, v)
				}
			}
		}
		return s
	}
	x, y := dist.Uniform(5), dist.Uniform(3)
	b := model.NewBuilder()
	b.AddVariable(x, "x")
	for e := 0; e < rank; e++ {
		vid := b.AddVariable(y, "")
		model.AddConjunctionEvent(b, []int{0, vid}, [][]int{subset(5), subset(3)}, []*dist.Distribution{x, y}, "")
	}
	return b.MustBuild()
}

// pickByRule applies the value rule of the choose functions to the
// candidates' scores and feasibility: the lowest feasible value for
// StrategyFirst, else the lowest feasible value of least (minimum score)
// or greatest (adversarial) score; with nothing feasible, the fallback
// is the lowest value of least score over all (rank 2) and ok is false.
func pickByRule(scores []float64, feasible []bool, strat Strategy) (val int, ok bool) {
	val = -1
	for y, f := range feasible {
		switch {
		case !f:
		case val < 0,
			strat == StrategyAdversarial && scores[y] > scores[val],
			strat == StrategyMinScore && scores[y] < scores[val]:
			val = y
		}
	}
	if val >= 0 {
		return val, true
	}
	val = 0
	for y := range scores {
		if scores[y] < scores[val] {
			val = y
		}
	}
	return val, false
}

// TestChooseRank2PicksByRule pins chooseRank2's value under each strategy
// to the rule, ties included: the first feasible value, or the first of
// least or greatest score, and the first value of least score when
// nothing is feasible.
func TestChooseRank2PicksByRule(t *testing.T) {
	r := prng.New(41)
	for trial := 0; trial < 300; trial++ {
		inst := chooseInstance(r, 2)
		orc := newOracle(inst)
		a := model.NewAssignment(inst)
		s, t2 := 2*r.Float64(), 2*r.Float64()
		scores, feasible := make([]float64, 5), make([]bool, 5)
		for y := range scores {
			scores[y] = s*orc.Inc(0, a, 0, y) + t2*orc.Inc(1, a, 0, y)
			feasible[y] = scores[y] <= s+t2+srep.DefaultTol
		}
		for _, strat := range []Strategy{StrategyMinScore, StrategyFirst, StrategyAdversarial} {
			want, ok := pickByRule(scores, feasible, strat)
			val, _, _, fallback := chooseRank2(orc, a, 0, 0, 1, s, t2, Options{Strategy: strat, Tol: srep.DefaultTol})
			if val != want || fallback == ok {
				t.Fatalf("trial %d strategy %v: chose %d (fallback %v), want %d (fallback %v); scores %v feasible %v",
					trial, strat, val, fallback, want, !ok, scores, feasible)
			}
		}
	}
}

// TestChooseRank3PicksByRule is TestChooseRank2PicksByRule for
// chooseRank3, where a value is feasible iff its scaled triple is
// representable and its score is the triple's sum.
func TestChooseRank3PicksByRule(t *testing.T) {
	r := prng.New(43)
	for trial := 0; trial < 300; trial++ {
		inst := chooseInstance(r, 3)
		orc := newOracle(inst)
		a := model.NewAssignment(inst)
		ta, tb, tc := 1.5*r.Float64(), 1.5*r.Float64(), 1.5*r.Float64()
		scores, feasible := make([]float64, 5), make([]bool, 5)
		for y := range scores {
			x, yy, z := orc.Inc(0, a, 0, y)*ta, orc.Inc(1, a, 0, y)*tb, orc.Inc(2, a, 0, y)*tc
			scores[y] = x + yy + z
			feasible[y] = srep.IsRepresentable(x, yy, z, srep.DefaultTol)
		}
		for _, strat := range []Strategy{StrategyMinScore, StrategyFirst, StrategyAdversarial} {
			want, ok := pickByRule(scores, feasible, strat)
			val, _, fallback, err := chooseRank3(orc, a, 0, 0, 1, 2, ta, tb, tc, Options{Strategy: strat, Tol: srep.DefaultTol})
			if err != nil {
				t.Fatal(err)
			}
			if fallback == ok || (ok && val != want) {
				t.Fatalf("trial %d strategy %v: chose %d (fallback %v), want %d (fallback %v); scores %v feasible %v",
					trial, strat, val, fallback, want, !ok, scores, feasible)
			}
		}
	}
}
