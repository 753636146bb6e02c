package coloring

import (
	"fmt"

	"repro/internal/gf"
)

// Step describes one Linial colour-reduction iteration: a palette of size K
// shrinks to q² in a single communication round, where q is prime,
// t = ⌈log_q K⌉, and q ≥ Δ(t−1)+1 guarantees every node finds an evaluation
// point avoiding all neighbors.
type Step struct {
	K int // palette size before the step
	Q int // field order
	T int // number of base-q digits (polynomial length)
}

// NewK returns the palette size after the step.
func (s Step) NewK() int { return s.Q * s.Q }

// PlanStep returns the best (smallest new palette) Linial step from K
// colours at maximum degree delta, or ok=false if no step makes progress
// (the fixpoint, reached at K = O(Δ²)).
func PlanStep(k, delta int) (Step, bool) {
	if delta < 1 {
		delta = 1
	}
	for q := 2; q*q < k; q = gf.NextPrime(q + 1) {
		if !gf.IsPrime(q) {
			continue
		}
		t := digitsNeeded(k, q)
		if t >= 2 && q >= delta*(t-1)+1 {
			return Step{K: k, Q: q, T: t}, true
		}
	}
	return Step{}, false
}

// digitsNeeded returns ⌈log_q k⌉, the number of base-q digits required to
// write every colour in [0, k).
func digitsNeeded(k, q int) int {
	t := 1
	pow := q
	for pow < k {
		pow *= q
		t++
	}
	return t
}

// Schedule returns the full sequence of Linial steps from an initial palette
// of k0 colours down to the fixpoint, which every node can compute locally
// from (k0, Δ) — this is what keeps the distributed machines synchronized
// without communication. The length of the schedule is O(log* k0).
func Schedule(k0, delta int) []Step {
	var steps []Step
	k := k0
	for {
		s, ok := PlanStep(k, delta)
		if !ok {
			return steps
		}
		steps = append(steps, s)
		k = s.NewK()
	}
}

// FinalPalette returns the palette size after running the whole schedule.
func FinalPalette(k0, delta int) int {
	k := k0
	for _, s := range Schedule(k0, delta) {
		k = s.NewK()
	}
	return k
}

// Reduce performs one node's side of a Linial step: given the node's colour,
// its neighbors' colours (all in [0, s.K), all different from the node's)
// and the step parameters, it returns the node's new colour in [0, s.NewK()).
//
// The node's colour is read as a degree-(t−1) polynomial over GF(q) (base-q
// digits as coefficients); since distinct colours give distinct polynomials
// agreeing on at most t−1 points, at most Δ(t−1) < q evaluation points are
// "blocked" and a free point exists. Reduce takes the smallest free point
// x, scanning x = 0, 1, … and stopping at the first one no neighbour's
// polynomial shares, and returns the pair (x, g(x)) encoded as x·q + g(x).
// Every colour is validated before the scan; Reduce allocates nothing
// unless it fails.
func Reduce(s Step, color int, neighborColors []int) (int, error) {
	if color < 0 || color >= s.K {
		return 0, fmt.Errorf("coloring: colour %d outside palette [0, %d)", color, s.K)
	}
	f := gf.New(s.Q)
	for _, nc := range neighborColors {
		if nc == color {
			return 0, fmt.Errorf("coloring: neighbour shares colour %d (input not proper)", color)
		}
		if nc < 0 || nc >= s.K {
			return 0, fmt.Errorf("coloring: neighbour colour %d outside palette [0, %d)", nc, s.K)
		}
	}
scan:
	for x := 0; x < s.Q; x++ {
		mine := f.EvalDigits(color, s.T, x)
		for _, nc := range neighborColors {
			if f.EvalDigits(nc, s.T, x) == mine {
				continue scan
			}
		}
		return x*s.Q + mine, nil
	}
	return 0, fmt.Errorf("coloring: no free evaluation point (degree exceeds the step's Δ bound: %d neighbours, q=%d, t=%d)", len(neighborColors), s.Q, s.T)
}
