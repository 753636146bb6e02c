package coloring

import (
	"fmt"
	"testing"

	"repro/internal/gf"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/local"
	"repro/internal/prng"
)

// reduceExhaustive is the reference Linial step: it evaluates every heard
// colour's polynomial at all q points, marks the blocked ones, and takes
// the smallest free point. Reduce must agree with it on every input,
// errors included.
func reduceExhaustive(s Step, color int, neighborColors []int) (int, error) {
	if color < 0 || color >= s.K {
		return 0, fmt.Errorf("coloring: colour %d outside palette [0, %d)", color, s.K)
	}
	f := gf.New(s.Q)
	mine := refDigits(color, s.Q, s.T)
	mineAt := make([]int, s.Q) // my polynomial's value at every point
	for x := range mineAt {
		mineAt[x] = refEval(s.Q, mine, x)
	}
	blocked := make([]bool, s.Q)
	for _, nc := range neighborColors {
		if nc == color {
			return 0, fmt.Errorf("coloring: neighbour shares colour %d (input not proper)", color)
		}
		if nc < 0 || nc >= s.K {
			return 0, fmt.Errorf("coloring: neighbour colour %d outside palette [0, %d)", nc, s.K)
		}
		theirs := refDigits(nc, s.Q, s.T)
		for x := 0; x < f.Q(); x++ {
			if !blocked[x] && mineAt[x] == refEval(s.Q, theirs, x) {
				blocked[x] = true
			}
		}
	}
	for x := 0; x < s.Q; x++ {
		if !blocked[x] {
			return x*s.Q + mineAt[x], nil
		}
	}
	return 0, fmt.Errorf("coloring: no free evaluation point (degree exceeds the step's Δ bound: %d neighbours, q=%d, t=%d)", len(neighborColors), s.Q, s.T)
}

// refDigits decomposes v >= 0 into exactly t base-q digits, least
// significant first.
func refDigits(v, q, t int) []int {
	out := make([]int, t)
	for i := 0; i < t && v > 0; i++ {
		out[i] = v % q
		v /= q
	}
	return out
}

// refEval evaluates the polynomial with the given coefficients over GF(q)
// at x by Horner's rule.
func refEval(q int, coeffs []int, x int) int {
	result := 0
	for i := len(coeffs) - 1; i >= 0; i-- {
		result = (result*x + coeffs[i]) % q
	}
	return result
}

// sameReduce fails the test unless Reduce and reduceExhaustive return the
// same colour, or errors with the same text.
func sameReduce(t *testing.T, s Step, color int, nbrs []int) {
	t.Helper()
	got, gerr := Reduce(s, color, nbrs)
	want, werr := reduceExhaustive(s, color, nbrs)
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("step %+v colour %d nbrs %v: error %v, reference %v", s, color, nbrs, gerr, werr)
	case gerr != nil && gerr.Error() != werr.Error():
		t.Fatalf("step %+v colour %d: error %q, reference %q", s, color, gerr, werr)
	case got != want:
		t.Fatalf("step %+v colour %d nbrs %v: colour %d, reference %d", s, color, nbrs, got, want)
	}
}

// familyDeltas returns the dependency-graph degrees Δ that the
// distributed fixers colour at n nodes: rank-3 hyper-sinkless of degree 3
// (Corollary 1.4, the end-to-end benchmark's dist-cold shape at n = 72)
// and the 3-regular graphs of sinkless orientation.
func familyDeltas(t *testing.T, n int) []int {
	t.Helper()
	r := prng.New(uint64(n))
	h, err := hypergraph.RandomRegularRank3(n, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.RandomRegular(n, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	return []int{h.DependencyDegree(), g.MaxDegree()}
}

// blockingColour returns a colour in [0, s.K), other than avoid, whose
// polynomial takes the value y at point x, or -1 if the draws found none.
func blockingColour(r *prng.Rand, s Step, x, y, avoid int) int {
	for try := 0; try < 64; try++ {
		// Random higher digits; the constant digit is then forced.
		c, place, at, pow := 0, s.Q, 0, x%s.Q
		for i := 1; i < s.T; i++ {
			d := r.Intn(s.Q)
			c += d * place
			place *= s.Q
			at = (at + d*pow) % s.Q
			pow = pow * x % s.Q
		}
		c += ((y-at)%s.Q + s.Q) % s.Q
		if c < s.K && c != avoid {
			return c
		}
	}
	return -1
}

// TestReduceMatchesExhaustive runs every step of the schedules the
// distance-2 colouring uses at the families' degrees, from the ID space of
// n = 72 and n = 1000 nodes, on random proper inputs with duplicated heard
// colours (a node reached on several paths is heard several times), and
// on inputs whose heard colours block the first points, so the scan runs
// past x = 0.
func TestReduceMatchesExhaustive(t *testing.T) {
	r := prng.New(27)
	for _, n := range []int{72, 1000} {
		k0 := int(local.IDSpace(n))
		for _, delta := range familyDeltas(t, n) {
			bound := delta * delta
			sched := Schedule(k0, bound)
			if len(sched) == 0 {
				t.Fatalf("n=%d Δ=%d: empty schedule", n, delta)
			}
			for _, s := range sched {
				for trial := 0; trial < 300; trial++ {
					color := r.Intn(s.K)
					var nbrs []int
					for want := r.Intn(bound + 1); len(nbrs) < want; {
						c := r.Intn(s.K)
						if c == color {
							continue
						}
						nbrs = append(nbrs, c)
						if r.Intn(3) == 0 {
							nbrs = append(nbrs, nbrs[r.Intn(len(nbrs))])
						}
					}
					sameReduce(t, s, color, nbrs)

					// Block points 0, 1, … in turn, as far as the step's
					// degree bound allows.
					var blockers []int
					mine := refDigits(color, s.Q, s.T)
					for x := 0; x < s.Q && len(blockers) < bound; x++ {
						if c := blockingColour(r, s, x, refEval(s.Q, mine, x), color); c >= 0 {
							blockers = append(blockers, c)
						}
					}
					sameReduce(t, s, color, blockers)
				}
			}
		}
	}
}

// TestReduceErrorsMatchExhaustive pins the four failure modes and their
// error text against the reference.
func TestReduceErrorsMatchExhaustive(t *testing.T) {
	s := Step{K: 100, Q: 11, T: 2}
	// Colour 0 is the zero polynomial; colour 11+a is x+a, which vanishes
	// at x = -a. Eleven such neighbours block every point.
	var all []int
	for a := 0; a < 11; a++ {
		all = append(all, 11+a)
	}
	cases := []struct {
		name  string
		color int
		nbrs  []int
		want  string
	}{
		{"own colour out of palette", 200, nil, "coloring: colour 200 outside palette [0, 100)"},
		{"neighbour shares the colour", 5, []int{7, 5}, "coloring: neighbour shares colour 5 (input not proper)"},
		{"neighbour out of palette", 5, []int{7, 200, 5}, "coloring: neighbour colour 200 outside palette [0, 100)"},
		{"no free point", 0, all, "coloring: no free evaluation point (degree exceeds the step's Δ bound: 11 neighbours, q=11, t=2)"},
	}
	for _, c := range cases {
		if _, err := Reduce(s, c.color, c.nbrs); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
		sameReduce(t, s, c.color, c.nbrs)
	}
}

// TestReduceAllocatesNothing pins that a Linial step allocates nothing on
// success.
func TestReduceAllocatesNothing(t *testing.T) {
	s := Schedule(int(local.IDSpace(72)), 36)[0]
	nbrs := make([]int, 36)
	for i := range nbrs {
		nbrs[i] = 1 + 7919*i
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Reduce(s, 0, nbrs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reduce made %v allocations per call, want 0", allocs)
	}
}

// TestDistance2NativeMatchesExhaustiveSimulation runs the native
// distance-2 machine and, centrally, the same schedule with the reference
// Linial step and the Kuhn-Wattenhofer step against every node's full
// distance-2 neighbourhood; the colourings must be identical. It covers
// the dependency graph of the dist-cold shape and a grid.
func TestDistance2NativeMatchesExhaustiveSimulation(t *testing.T) {
	h, err := hypergraph.RandomRegularRank3(72, 3, prng.New(2701))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{h.DependencyGraph(), graph.Grid(5, 6)} {
		n := g.N()
		r := prng.New(uint64(n))
		space := local.IDSpace(n)
		ids := make([]uint64, n)
		seen := map[uint64]bool{}
		for v := range ids {
			for {
				id := r.Uint64() % space
				if !seen[id] {
					seen[id] = true
					ids[v] = id
					break
				}
			}
		}
		res, err := DistributedDistance2Native(g, local.Options{PresetIDs: ids})
		if err != nil {
			t.Fatal(err)
		}

		delta := g.MaxDegree()
		target := delta*delta + 1
		k0 := int(space)
		ball := make([][]int, n) // distance-1 and distance-2 nodes
		for v := range ball {
			for u, d := range g.BFS(v) {
				if d == 1 || d == 2 {
					ball[v] = append(ball[v], u)
				}
			}
		}
		colors := make([]int, n)
		for v := range colors {
			colors[v] = int(ids[v])
		}
		heard := func(v int) []int {
			var out []int
			for _, u := range ball[v] {
				out = append(out, colors[u])
			}
			return out
		}
		used := make([]bool, target)
		for _, s := range Schedule(k0, delta*delta) {
			next := make([]int, n)
			for v := range next {
				if next[v], err = reduceExhaustive(s, colors[v], heard(v)); err != nil {
					t.Fatal(err)
				}
			}
			colors = next
		}
		for range kwSchedule(FinalPalette(k0, delta*delta), target) {
			for j := 0; j < target; j++ {
				next := make([]int, n)
				for v := range next {
					c, ok := kwStep(target, j, colors[v], heard(v), used)
					if !ok {
						t.Fatalf("kwStep: no free colour at node %d", v)
					}
					next[v] = c
				}
				colors = next
			}
		}
		for v := range colors {
			if res.Colors[v] != colors[v] {
				t.Fatalf("n=%d node %d: native colour %d, reference %d", n, v, res.Colors[v], colors[v])
			}
		}
	}
}

// TestDistance2TypeChecksUnfoldedRounds pins that an A round whose step
// does not read the forwarded colours still rejects a payload of the
// wrong type.
func TestDistance2TypeChecksUnfoldedRounds(t *testing.T) {
	m := newD2Machine(newPlan(1000, 4, 5))
	m.Init(local.NodeInfo{ID: 3, NeighborIDs: []uint64{1, 2}, N: 3, MaxDegree: 2})
	m.color = 0 // class 0 is never reduced, so no KW round folds
	round := 2*len(m.plan.linial) + 3
	if _, done := m.Round(round, []local.Message{&d2PairsMsg{}, d2ColorMsg(1)}); !done || m.err == nil {
		t.Fatalf("wrong payload type accepted: done=%v err=%v", done, m.err)
	}
}
