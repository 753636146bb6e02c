// Package graph provides the undirected-graph substrate used by the LLL
// reproduction: dependency graphs of LLL instances, communication topologies
// for the LOCAL simulator, and the derived graphs (line graph, square graph)
// required by the colouring substrate.
//
// Graphs are simple (no self-loops, no parallel edges) and immutable after
// Build. Nodes are identified by dense integers 0..N-1 and edges by dense
// integers 0..M-1, which lets all per-node and per-edge state elsewhere in
// the repository live in slices.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

var (
	// ErrSelfLoop indicates an attempt to add an edge from a node to itself.
	ErrSelfLoop = errors.New("graph: self-loop")
	// ErrNodeRange indicates an edge endpoint outside [0, N).
	ErrNodeRange = errors.New("graph: node out of range")
	// ErrDuplicateEdge indicates an edge added twice.
	ErrDuplicateEdge = errors.New("graph: duplicate edge")
)

// Edge is an undirected edge between nodes U < V.
type Edge struct {
	U, V int
}

// normalize returns the edge with endpoints sorted.
func (e Edge) normalize() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Other returns the endpoint of e that is not x. It panics if x is not an
// endpoint of e.
func (e Edge) Other(x int) int {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		panic(fmt.Sprintf("graph: node %d not an endpoint of %v", x, e))
	}
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n     int
	edges []Edge
	seen  map[uint64]struct{} // edgeKey of every edge added; created on first add
}

// NewBuilder returns a builder for a graph on n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// edgeKey packs the undirected edge {u, v} into one map key. Node
// identifiers are dense slice indices, so they fit in 32 bits.
func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// Grow reserves room for m more edges. Called before the first edge, it
// also presizes the edge set, so a generator that knows its edge count
// adds every edge without rehashing.
func (b *Builder) Grow(m int) {
	b.edges = slices.Grow(b.edges, m)
}

// AddEdge records the undirected edge {u, v}.
func (b *Builder) AddEdge(u, v int) error {
	added, err := b.AddEdgeIfAbsent(u, v)
	if err == nil && !added {
		return fmt.Errorf("%w: {%d,%d}", ErrDuplicateEdge, u, v)
	}
	return err
}

// AddEdgeIfAbsent records the undirected edge {u, v} unless it was already
// added, and reports whether it was added. Self-loops and endpoints out of
// range fail as in AddEdge. It costs one map operation, where HasEdge
// followed by AddEdge costs two.
func (b *Builder) AddEdgeIfAbsent(u, v int) (bool, error) {
	if u == v {
		return false, fmt.Errorf("%w: {%d,%d}", ErrSelfLoop, u, v)
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return false, fmt.Errorf("%w: {%d,%d} with n=%d", ErrNodeRange, u, v, b.n)
	}
	if b.seen == nil {
		b.seen = make(map[uint64]struct{}, cap(b.edges))
	}
	size := len(b.seen)
	b.seen[edgeKey(u, v)] = struct{}{}
	if len(b.seen) == size {
		return false, nil
	}
	b.edges = append(b.edges, Edge{U: u, V: v}.normalize())
	return true, nil
}

// HasEdge reports whether {u,v} was already added.
func (b *Builder) HasEdge(u, v int) bool {
	_, ok := b.seen[edgeKey(u, v)]
	return ok
}

// removeEdgeAt deletes the edge at index idx from the builder. Only the
// generator repair logic uses it; edge identifiers are assigned at Build
// time, so removal before Build is safe.
func (b *Builder) removeEdgeAt(idx int) {
	e := b.edges[idx]
	delete(b.seen, edgeKey(e.U, e.V))
	last := len(b.edges) - 1
	b.edges[idx] = b.edges[last]
	b.edges = b.edges[:last]
}

// Build finalizes the graph. The builder must not be used afterwards.
//
// All adjacency lists live in one flat array: node v's list is a
// capacity-capped sub-slice of it (nil for an isolated node), filled in
// edge order and then sorted by neighbour, so the order does not depend on
// insertion order.
func (b *Builder) Build() *Graph {
	g := &Graph{
		n:     b.n,
		edges: b.edges,
		adj:   make([][]neighbor, b.n),
	}
	// end[v] counts v's degree shifted by one, becomes the start of v's
	// range after the prefix sum, and the end of it after the fill.
	end := make([]int, b.n+1)
	for _, e := range b.edges {
		end[e.U+1]++
		end[e.V+1]++
	}
	for v := 0; v < b.n; v++ {
		end[v+1] += end[v]
	}
	flat := make([]neighbor, 2*len(b.edges))
	for id, e := range b.edges {
		flat[end[e.U]] = neighbor{node: e.V, edge: id}
		end[e.U]++
		flat[end[e.V]] = neighbor{node: e.U, edge: id}
		end[e.V]++
	}
	start := 0
	for v := 0; v < b.n; v++ {
		if end[v] > start {
			list := flat[start:end[v]:end[v]]
			slices.SortFunc(list, func(x, y neighbor) int { return cmp.Compare(x.node, y.node) })
			g.adj[v] = list
		}
		start = end[v]
	}
	return g
}

type neighbor struct {
	node int
	edge int
}

// Graph is an immutable simple undirected graph.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]neighbor // sub-slices of one flat array, sorted by node
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edge returns the edge with identifier id.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns a copy of the edge list, indexed by edge identifier.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the maximum degree over all nodes (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// Neighbors returns the neighbors of v in ascending order. The returned
// slice is freshly allocated.
func (g *Graph) Neighbors(v int) []int {
	out := make([]int, len(g.adj[v]))
	for i, nb := range g.adj[v] {
		out[i] = nb.node
	}
	return out
}

// IncidentEdges returns the identifiers of the edges incident to v, ordered
// by the neighbor at the other endpoint.
func (g *Graph) IncidentEdges(v int) []int {
	out := make([]int, len(g.adj[v]))
	for i, nb := range g.adj[v] {
		out[i] = nb.edge
	}
	return out
}

// EdgeBetween returns the identifier of the edge {u,v} and whether it exists.
func (g *Graph) EdgeBetween(u, v int) (int, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, false
	}
	// Binary search over the sorted adjacency of the lower-degree endpoint.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	lst := g.adj[a]
	i := sort.Search(len(lst), func(i int) bool { return lst[i].node >= b })
	if i < len(lst) && lst[i].node == b {
		return lst[i].edge, true
	}
	return 0, false
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.EdgeBetween(u, v)
	return ok
}

// Neighbor returns v's i-th neighbour in ascending order (0 ≤ i <
// Degree(v)), without allocating.
func (g *Graph) Neighbor(v, i int) int { return g.adj[v][i].node }

// ForEachNeighbor calls fn for each neighbor of v with the neighbor and the
// connecting edge identifier, in ascending neighbor order.
func (g *Graph) ForEachNeighbor(v int, fn func(u, edgeID int)) {
	for _, nb := range g.adj[v] {
		fn(nb.node, nb.edge)
	}
}

// BFS runs a breadth-first search from src and returns the distance slice
// (-1 for unreachable nodes).
func (g *Graph) BFS(src int) []int {
	distance := make([]int, g.n)
	for i := range distance {
		distance[i] = -1
	}
	distance[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, nb := range g.adj[v] {
			if distance[nb.node] < 0 {
				distance[nb.node] = distance[v] + 1
				queue = append(queue, nb.node)
			}
		}
	}
	return distance
}

// Connected reports whether the graph is connected. The empty graph and the
// single-node graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	for _, d := range g.BFS(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// Diameter returns the largest pairwise distance, or -1 if the graph is
// disconnected or empty. It is O(N·M); use it only on test-sized graphs.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return -1
	}
	diam := 0
	for v := 0; v < g.n; v++ {
		for _, d := range g.BFS(v) {
			if d < 0 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// Square returns the graph G² on the same node set, where two distinct nodes
// are adjacent iff their distance in g is at most 2. Distance-2 colourings of
// g are exactly proper colourings of g.Square().
func (g *Graph) Square() *Graph {
	b := NewBuilder(g.n)
	for v := 0; v < g.n; v++ {
		for _, nb := range g.adj[v] {
			if v < nb.node {
				mustAddIfAbsent(b, v, nb.node)
			}
			// Distance-2 pairs through v.
			for _, nb2 := range g.adj[v] {
				if a, c := nb.node, nb2.node; a < c {
					mustAddIfAbsent(b, a, c)
				}
			}
		}
	}
	return b.Build()
}

// LineGraph returns the line graph L(G): one node per edge of g, with two
// nodes adjacent iff the corresponding edges share an endpoint. The node
// identifiers of L(G) equal the edge identifiers of g. Proper colourings of
// L(G) are exactly proper edge colourings of g.
func (g *Graph) LineGraph() *Graph {
	b := NewBuilder(len(g.edges))
	for v := 0; v < g.n; v++ {
		adj := g.adj[v]
		for i := 0; i < len(adj); i++ {
			for j := i + 1; j < len(adj); j++ {
				mustAddIfAbsent(b, adj[i].edge, adj[j].edge)
			}
		}
	}
	return b.Build()
}

func mustAdd(b *Builder, u, v int) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err) // internal invariant: callers pre-check validity
	}
}

// mustAddIfAbsent is AddEdgeIfAbsent for pairs known to be valid.
func mustAddIfAbsent(b *Builder, u, v int) bool {
	added, err := b.AddEdgeIfAbsent(u, v)
	if err != nil {
		panic(err) // internal invariant: callers pre-check validity
	}
	return added
}

// DOT renders the graph in Graphviz DOT format, mainly for debugging and
// example output.
func (g *Graph) DOT(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %s {\n", name)
	for v := 0; v < g.n; v++ {
		fmt.Fprintf(&sb, "  %d;\n", v)
	}
	for _, e := range g.edges {
		fmt.Fprintf(&sb, "  %d -- %d;\n", e.U, e.V)
	}
	sb.WriteString("}\n")
	return sb.String()
}
