package graph

import (
	"fmt"

	"repro/internal/prng"
)

// Cycle returns the cycle C_n. It requires n >= 3.
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: Cycle needs n >= 3, got %d", n))
	}
	b := NewBuilder(n)
	b.Grow(n)
	for i := 0; i < n; i++ {
		mustAdd(b, i, (i+1)%n)
	}
	return b.Build()
}

// Path returns the path P_n on n nodes (n-1 edges). It requires n >= 1.
func Path(n int) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("graph: Path needs n >= 1, got %d", n))
	}
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		mustAdd(b, i, i+1)
	}
	return b.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mustAdd(b, i, j)
		}
	}
	return b.Build()
}

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int) *Graph {
	if rows < 1 || cols < 1 {
		panic("graph: Grid needs positive dimensions")
	}
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				mustAdd(b, id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				mustAdd(b, id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// Torus returns the rows x cols torus (wrap-around grid). Both dimensions
// must be at least 3 so the graph stays simple.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic("graph: Torus needs dimensions >= 3")
	}
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			mustAdd(b, id(r, c), id(r, (c+1)%cols))
			mustAdd(b, id(r, c), id((r+1)%rows, c))
		}
	}
	return b.Build()
}

// CompleteBinaryTree returns a complete binary tree on n nodes, with node 0
// as the root and node i's parent being (i-1)/2.
func CompleteBinaryTree(n int) *Graph {
	if n < 1 {
		panic("graph: CompleteBinaryTree needs n >= 1")
	}
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		mustAdd(b, i, (i-1)/2)
	}
	return b.Build()
}

// RandomTree returns a uniformly random labelled tree on n nodes, generated
// by decoding a random Prüfer sequence.
func RandomTree(n int, r *prng.Rand) *Graph {
	if n < 1 {
		panic("graph: RandomTree needs n >= 1")
	}
	b := NewBuilder(n)
	if n == 1 {
		return b.Build()
	}
	if n == 2 {
		mustAdd(b, 0, 1)
		return b.Build()
	}
	seq := make([]int, n-2)
	for i := range seq {
		seq[i] = r.Intn(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range seq {
		degree[v]++
	}
	// Standard Prüfer decoding with a pointer-and-leaf scan.
	ptr := 0
	for degree[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range seq {
		mustAdd(b, leaf, v)
		degree[v]--
		if degree[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for degree[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	mustAdd(b, leaf, n-1)
	return b.Build()
}

// RandomRegular returns a random d-regular simple graph on n nodes using the
// configuration model with restarts. It requires n*d even, d < n and d >= 0.
// For the (n, d) ranges used in this repository a valid pairing is found
// after a handful of restarts with overwhelming probability; the function
// gives up and returns an error after maxRestarts attempts.
func RandomRegular(n, d int, r *prng.Rand) (*Graph, error) {
	const maxRestarts = 1000
	switch {
	case d < 0 || n < 0:
		return nil, fmt.Errorf("graph: RandomRegular(%d, %d): negative parameter", n, d)
	case d >= n:
		return nil, fmt.Errorf("graph: RandomRegular(%d, %d): need d < n", n, d)
	case n*d%2 != 0:
		return nil, fmt.Errorf("graph: RandomRegular(%d, %d): n*d must be even", n, d)
	}
	if d == 0 {
		return NewBuilder(n).Build(), nil
	}
	if d == n-1 {
		// K_n is the unique (n-1)-regular graph; the configuration model
		// almost never produces a simple pairing for it.
		return Complete(n), nil
	}
	stubs := make([]int, 0, n*d)
	for attempt := 0; attempt < maxRestarts; attempt++ {
		stubs = stubs[:0]
		for v := 0; v < n; v++ {
			for i := 0; i < d; i++ {
				stubs = append(stubs, v)
			}
		}
		r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		// Greedily accept valid pairs, then repair the conflicting leftovers
		// with random edge swaps (the standard configuration-model repair;
		// plain rejection has success probability ~e^(-d²/4) and stalls
		// already at d = 6).
		b := NewBuilder(n)
		b.Grow(n * d / 2)
		var leftover [][2]int
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v || !mustAddIfAbsent(b, u, v) {
				leftover = append(leftover, [2]int{u, v})
			}
		}
		if g, ok := repairPairing(b, leftover, n, r); ok {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: RandomRegular(%d, %d): no simple pairing after %d restarts", n, d, maxRestarts)
}

// repairPairing resolves leftover (conflicting) stub pairs by splicing them
// into randomly chosen accepted edges: a leftover pair {u, v} and an edge
// {x, y} with all four nodes distinct, u–x and v–y absent, are replaced by
// u–x and v–y. Returns the finished graph, or ok=false if a leftover could
// not be placed within its swap budget.
func repairPairing(b *Builder, leftover [][2]int, n int, r *prng.Rand) (*Graph, bool) {
	for _, p := range leftover {
		u, v := p[0], p[1]
		placed := false
		for try := 0; try < 200*n; try++ {
			if len(b.edges) == 0 {
				break
			}
			idx := r.Intn(len(b.edges))
			e := b.edges[idx]
			x, y := e.U, e.V
			if r.Bool() {
				x, y = y, x
			}
			if u == x || u == y || v == x || v == y {
				continue
			}
			if b.HasEdge(u, x) || b.HasEdge(v, y) {
				continue
			}
			b.removeEdgeAt(idx)
			mustAdd(b, u, x)
			mustAdd(b, v, y)
			placed = true
			break
		}
		if !placed {
			return nil, false
		}
	}
	return b.Build(), true
}

// RandomBoundedDegree returns a random simple graph on n nodes where every
// node has degree at most maxDeg; approximately m edges are attempted. It is
// the workhorse generator for irregular LLL dependency graphs.
func RandomBoundedDegree(n, m, maxDeg int, r *prng.Rand) *Graph {
	if n < 2 || maxDeg < 1 {
		return NewBuilder(max(n, 0)).Build()
	}
	b := NewBuilder(n)
	degree := make([]int, n)
	attempts := 0
	added := 0
	// Cap attempts so pathological parameter combinations terminate.
	for added < m && attempts < 20*m+100 {
		attempts++
		u, v := r.Intn(n), r.Intn(n)
		if u == v || degree[u] >= maxDeg || degree[v] >= maxDeg || b.HasEdge(u, v) {
			continue
		}
		mustAdd(b, u, v)
		degree[u]++
		degree[v]++
		added++
	}
	return b.Build()
}

// HyperCube returns the dim-dimensional hypercube graph on 2^dim nodes.
func HyperCube(dim int) *Graph {
	if dim < 0 || dim > 20 {
		panic("graph: HyperCube dimension out of range")
	}
	n := 1 << dim
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < dim; bit++ {
			u := v ^ (1 << bit)
			if v < u {
				mustAdd(b, v, u)
			}
		}
	}
	return b.Build()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
