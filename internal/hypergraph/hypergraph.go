// Package hypergraph provides the hypergraph substrate of the reproduction.
//
// In the paper's formulation (Section 3), the hypergraph H = (V, F) has one
// node per bad event and one hyperedge per random variable, connecting
// exactly the events that depend on the variable. The rank of H — the size
// of its largest hyperedge — is the parameter r: the maximum number of
// events any variable affects. The paper's results concern r = 2
// (Theorem 1.1) and r = 3 (Theorem 1.3).
package hypergraph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/prng"
)

var (
	// ErrNodeRange indicates a hyperedge member outside [0, N).
	ErrNodeRange = errors.New("hypergraph: node out of range")
	// ErrEmptyEdge indicates a hyperedge with no members.
	ErrEmptyEdge = errors.New("hypergraph: empty hyperedge")
	// ErrDuplicateMember indicates a hyperedge listing a node twice.
	ErrDuplicateMember = errors.New("hypergraph: duplicate member in hyperedge")
)

// Hypergraph is an immutable hypergraph on nodes 0..N-1 with hyperedges
// identified by dense integers 0..M-1. Parallel hyperedges (two hyperedges
// with identical member sets) are allowed: they model distinct random
// variables affecting the same set of events.
type Hypergraph struct {
	n        int
	edges    [][]int // sorted member lists, shared read-only
	incident [][]int // node -> hyperedge IDs: sub-slices of one flat array
}

// Builder accumulates hyperedges and produces an immutable Hypergraph.
type Builder struct {
	n     int
	edges [][]int
}

// NewBuilder returns a builder for a hypergraph on n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records a hyperedge over the given members (order irrelevant).
// The builder keeps a copy.
func (b *Builder) AddEdge(members ...int) error {
	return b.AddOwnedEdge(append([]int(nil), members...))
}

// AddOwnedEdge is AddEdge for a member list the caller hands over: the
// builder keeps the slice itself, sorting it in place unless it is
// ascending already, and the built hypergraph shares it read-only (see
// Edge). The caller must not write to it afterwards. The checks and errors
// are AddEdge's.
func (b *Builder) AddOwnedEdge(members []int) error {
	if len(members) == 0 {
		return ErrEmptyEdge
	}
	if !slices.IsSorted(members) {
		slices.Sort(members)
	}
	for i, v := range members {
		if v < 0 || v >= b.n {
			return fmt.Errorf("%w: %d with n=%d", ErrNodeRange, v, b.n)
		}
		if i > 0 && members[i-1] == v {
			return fmt.Errorf("%w: node %d", ErrDuplicateMember, v)
		}
	}
	b.edges = append(b.edges, members)
	return nil
}

// Build finalizes the hypergraph. The builder must not be used afterwards.
func (b *Builder) Build() *Hypergraph {
	incident := make([][]int, b.n)
	Incidence(b.n, len(b.edges), func(id int) []int { return b.edges[id] },
		func(v int, ids []int) { incident[v] = ids })
	return &Hypergraph{n: b.n, edges: b.edges, incident: incident}
}

// Incidence inverts count member lists, the j-th of which is list(j): for
// every i in [0, n) it calls set(i, ids) with ids the indices, ascending,
// of the lists that contain i. Over a hypergraph's hyperedges it gives
// each node's incident hyperedges; over an instance's event scopes, each
// variable's events. The ids are capacity-capped sub-slices of one array,
// nil for an i that no list contains. Every member must lie in [0, n).
func Incidence(n, count int, list func(j int) []int, set func(i int, ids []int)) {
	// end[v] counts v's lists shifted by one, becomes the start of v's
	// range after the prefix sum, and the end of it after the fill.
	end := make([]int, n+1)
	for id := 0; id < count; id++ {
		for _, v := range list(id) {
			end[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		end[v+1] += end[v]
	}
	flat := make([]int, end[n])
	for id := 0; id < count; id++ {
		for _, v := range list(id) {
			flat[end[v]] = id
			end[v]++
		}
	}
	start := 0
	for v := 0; v < n; v++ {
		var ids []int
		if end[v] > start {
			ids = flat[start:end[v]:end[v]]
		}
		set(v, ids)
		start = end[v]
	}
}

// N returns the number of nodes.
func (h *Hypergraph) N() int { return h.n }

// M returns the number of hyperedges.
func (h *Hypergraph) M() int { return len(h.edges) }

// Edge returns the sorted member list of hyperedge id. The returned slice is
// shared, read-only: it is the list the builder was given or made (for an
// instance's variable hypergraph, the variable's Events list itself).
// Callers must not modify it; EdgeCopy returns one they may.
func (h *Hypergraph) Edge(id int) []int { return h.edges[id] }

// EdgeCopy returns a fresh copy of the member list of hyperedge id.
func (h *Hypergraph) EdgeCopy(id int) []int {
	out := make([]int, len(h.edges[id]))
	copy(out, h.edges[id])
	return out
}

// Rank returns the size of the largest hyperedge (0 for an edgeless graph).
func (h *Hypergraph) Rank() int {
	r := 0
	for _, e := range h.edges {
		if len(e) > r {
			r = len(e)
		}
	}
	return r
}

// Degree returns the number of hyperedges containing node v.
func (h *Hypergraph) Degree(v int) int { return len(h.incident[v]) }

// MaxDegree returns the maximum node degree.
func (h *Hypergraph) MaxDegree() int {
	m := 0
	for v := 0; v < h.n; v++ {
		if d := h.Degree(v); d > m {
			m = d
		}
	}
	return m
}

// Incident returns the identifiers of the hyperedges containing v, in
// insertion order. The returned slice is freshly allocated.
func (h *Hypergraph) Incident(v int) []int {
	out := make([]int, len(h.incident[v]))
	copy(out, h.incident[v])
	return out
}

// ForEachIncident calls fn with the identifier of each hyperedge containing
// v, in insertion order, without allocating.
func (h *Hypergraph) ForEachIncident(v int, fn func(edgeID int)) {
	for _, id := range h.incident[v] {
		fn(id)
	}
}

// Contains reports whether hyperedge id contains node v.
func (h *Hypergraph) Contains(id, v int) bool {
	members := h.edges[id]
	i := sort.SearchInts(members, v)
	return i < len(members) && members[i] == v
}

// DependencyGraph returns the dependency graph of the LLL instance encoded
// by h: one node per hypergraph node (event), with two events adjacent iff
// they share a hyperedge (variable). Parallel hyperedges collapse to a
// single dependency edge.
func (h *Hypergraph) DependencyGraph() *graph.Graph {
	return DependencyGraphOf(h.n, len(h.edges), func(id int) []int { return h.edges[id] })
}

// DependencyGraphOf is DependencyGraph over count member lists on n nodes,
// the j-th of which is edge(j), each ascending and duplicate-free with
// members in [0, n): the graph with an edge for every pair of nodes that
// share a list, numbered in order of first appearance, list by list, each
// list's pairs in ascending order. A list of fewer than two members adds
// no edge.
func DependencyGraphOf(n, count int, edge func(j int) []int) *graph.Graph {
	b := graph.NewBuilder(n)
	pairs := 0
	for id := 0; id < count; id++ {
		k := len(edge(id))
		pairs += k * (k - 1) / 2
	}
	b.Grow(pairs)
	for id := 0; id < count; id++ {
		members := edge(id)
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if _, err := b.AddEdgeIfAbsent(members[i], members[j]); err != nil {
					panic(err) // members validated by the caller
				}
			}
		}
	}
	return b.Build()
}

// DependencyDegree returns the maximum degree of the dependency graph, i.e.
// the LLL parameter d of the instance encoded by h.
func (h *Hypergraph) DependencyDegree() int {
	return h.DependencyGraph().MaxDegree()
}

// FromGraph returns the rank-2 hypergraph whose hyperedges are exactly the
// edges of g, preserving edge identifiers. This encodes the r = 2 setting of
// Section 2, where every random variable sits on one edge of the dependency
// graph.
func FromGraph(g *graph.Graph) *Hypergraph {
	b := NewBuilder(g.N())
	for _, e := range g.Edges() {
		if err := b.AddEdge(e.U, e.V); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// RandomRegularRank3 returns a random 3-uniform hypergraph on n nodes where
// every node lies in exactly deg hyperedges, built with a configuration
// model with restarts. It requires n*deg divisible by 3 and returns an error
// if no valid configuration is found.
func RandomRegularRank3(n, deg int, r *prng.Rand) (*Hypergraph, error) {
	return RandomRegularUniform(n, deg, 3, r)
}

// RandomRegularUniform returns a random k-uniform hypergraph on n nodes
// where every node lies in exactly deg hyperedges, built with a
// configuration model with restarts. It requires n*deg divisible by k.
func RandomRegularUniform(n, deg, k int, r *prng.Rand) (*Hypergraph, error) {
	const maxRestarts = 2000
	if k < 2 {
		return nil, fmt.Errorf("hypergraph: RandomRegularUniform: rank %d < 2", k)
	}
	if n < k || deg < 1 {
		return nil, fmt.Errorf("hypergraph: RandomRegularUniform(%d, %d, %d): need n >= k, deg >= 1", n, deg, k)
	}
	if n*deg%k != 0 {
		return nil, fmt.Errorf("hypergraph: RandomRegularUniform(%d, %d, %d): n*deg must be divisible by k", n, deg, k)
	}
	stubs := make([]int, 0, n*deg)
	for attempt := 0; attempt < maxRestarts; attempt++ {
		stubs = stubs[:0]
		for v := 0; v < n; v++ {
			for i := 0; i < deg; i++ {
				stubs = append(stubs, v)
			}
		}
		r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		// Each hyperedge owns its k stubs; a failed attempt drops its
		// builder before the stubs are refilled.
		b := NewBuilder(n)
		b.edges = make([][]int, 0, len(stubs)/k)
		ok := true
		for i := 0; ok && i < len(stubs); i += k {
			if err := b.AddOwnedEdge(stubs[i : i+k : i+k]); err != nil {
				ok = false
			}
		}
		if ok {
			return b.Build(), nil
		}
	}
	return nil, fmt.Errorf("hypergraph: RandomRegularUniform(%d, %d, %d): no valid configuration after %d restarts", n, deg, k, maxRestarts)
}

// RandomMixedRank returns a random hypergraph on n nodes with (up to) m
// hyperedges of sizes drawn uniformly from [minSize, maxSize], where every
// node lies in at most maxDeg hyperedges. Fewer than m edges may be
// produced when the degree budget runs out.
func RandomMixedRank(n, m, maxDeg, minSize, maxSize int, r *prng.Rand) (*Hypergraph, error) {
	if minSize < 2 || maxSize < minSize || maxSize > n {
		return nil, fmt.Errorf("hypergraph: RandomMixedRank: bad size range [%d, %d] for n=%d", minSize, maxSize, n)
	}
	b := NewBuilder(n)
	degree := make([]int, n)
	added := 0
	members := make([]int, 0, maxSize)
	for attempts := 0; added < m && attempts < 40*m+100; attempts++ {
		k := minSize + r.Intn(maxSize-minSize+1)
		members = members[:0]
		seen := make(map[int]bool, k)
		ok := true
		for len(members) < k {
			v := r.Intn(n)
			if seen[v] {
				ok = false
				break
			}
			if degree[v] >= maxDeg {
				ok = false
				break
			}
			seen[v] = true
			members = append(members, v)
		}
		if !ok {
			continue
		}
		if err := b.AddEdge(members...); err != nil {
			continue
		}
		for _, v := range members {
			degree[v]++
		}
		added++
	}
	return b.Build(), nil
}

// RandomRank3 returns a random rank-3 hypergraph on n nodes with m
// hyperedges where every node lies in at most maxDeg hyperedges. Hyperedges
// are 3-uniform. Fewer than m edges may be produced if the degree budget
// runs out.
func RandomRank3(n, m, maxDeg int, r *prng.Rand) *Hypergraph {
	b := NewBuilder(n)
	if n < 3 || maxDeg < 1 {
		return b.Build()
	}
	degree := make([]int, n)
	added := 0
	for attempts := 0; added < m && attempts < 30*m+100; attempts++ {
		u, v, w := r.Intn(n), r.Intn(n), r.Intn(n)
		if u == v || v == w || u == w {
			continue
		}
		if degree[u] >= maxDeg || degree[v] >= maxDeg || degree[w] >= maxDeg {
			continue
		}
		if err := b.AddEdge(u, v, w); err != nil {
			continue
		}
		degree[u]++
		degree[v]++
		degree[w]++
		added++
	}
	return b.Build()
}

// TriangleCover returns the rank-3 hypergraph on the node set of g with one
// hyperedge per triangle of g. It is useful for building r = 3 instances
// whose dependency graph is (a subgraph of) g.
func TriangleCover(g *graph.Graph) *Hypergraph {
	b := NewBuilder(g.N())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if w <= v || !g.HasEdge(u, w) {
					continue
				}
				if err := b.AddEdge(u, v, w); err != nil {
					panic(err)
				}
			}
		}
	}
	return b.Build()
}

// DOT renders the hypergraph in Graphviz DOT format using the standard
// bipartite convention: round nodes for hypergraph nodes, boxes for
// hyperedges.
func (h *Hypergraph) DOT(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %s {\n", name)
	for v := 0; v < h.n; v++ {
		fmt.Fprintf(&sb, "  n%d [shape=circle];\n", v)
	}
	for id := range h.edges {
		fmt.Fprintf(&sb, "  e%d [shape=box];\n", id)
	}
	for id, members := range h.edges {
		for _, v := range members {
			fmt.Fprintf(&sb, "  n%d -- e%d;\n", v, id)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
