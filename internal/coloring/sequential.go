// Package coloring provides the colouring substrate the paper's distributed
// corollaries depend on: proper vertex colourings computed in the LOCAL
// model in O(poly Δ + log* n) rounds (Linial-style colour reduction followed
// by Kuhn-Wattenhofer block halving), edge colourings via the line graph,
// distance-2 colourings via the square graph, the classic Cole-Vishkin
// procedure on cycles, and sequential baselines and verifiers.
//
// Substitution note (see DESIGN.md): the paper invokes [FHK16] for a 2-hop
// colouring in Õ(d) + log* n rounds and [PR01] for an O(d) edge colouring in
// O(d + log* n) rounds. This package reproduces the same *shape* —
// poly(Δ) + log*(n) — with simpler classic machinery; only the polynomial
// degree differs.
package coloring

import (
	"fmt"

	"repro/internal/graph"
)

// Greedy returns a proper colouring of g with at most Δ+1 colours, assigning
// each node (in identifier order) the smallest colour unused by its already
// coloured neighbors. It is the sequential baseline.
func Greedy(g *graph.Graph) []int {
	colors := make([]int, g.N())
	for i := range colors {
		colors[i] = -1
	}
	used := make([]bool, g.MaxDegree()+2)
	for v := 0; v < g.N(); v++ {
		for i := range used {
			used[i] = false
		}
		for _, u := range g.Neighbors(v) {
			if c := colors[u]; c >= 0 && c < len(used) {
				used[c] = true
			}
		}
		for c := range used {
			if !used[c] {
				colors[v] = c
				break
			}
		}
	}
	return colors
}

// Verify checks that colors is a proper colouring of g: every node has a
// non-negative colour different from all its neighbors'.
func Verify(g *graph.Graph, colors []int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("coloring: %d colours for %d nodes", len(colors), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if colors[v] < 0 {
			return fmt.Errorf("coloring: node %d uncoloured", v)
		}
		for _, u := range g.Neighbors(v) {
			if colors[v] == colors[u] {
				return fmt.Errorf("coloring: adjacent nodes %d and %d share colour %d", v, u, colors[v])
			}
		}
	}
	return nil
}

// VerifyDistance2 checks that colors is a distance-2 colouring of g: a
// proper colouring of g's square. It reads each node's neighbours and their
// neighbours on g, without building the square or allocating, and fails as
// Verify(g.Square(), colors) does: at the first node that is uncoloured or
// shares its colour within distance two, naming the lowest node it shares
// it with.
func VerifyDistance2(g *graph.Graph, colors []int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("coloring: %d colours for %d nodes", len(colors), g.N())
	}
	for v := 0; v < g.N(); v++ {
		c := colors[v]
		if c < 0 {
			return fmt.Errorf("coloring: node %d uncoloured", v)
		}
		clash := -1
		for i := 0; i < g.Degree(v); i++ {
			u := g.Neighbor(v, i)
			if colors[u] == c && (clash < 0 || u < clash) {
				clash = u
			}
			for j := 0; j < g.Degree(u); j++ {
				if w := g.Neighbor(u, j); w != v && colors[w] == c && (clash < 0 || w < clash) {
					clash = w
				}
			}
		}
		if clash >= 0 {
			return fmt.Errorf("coloring: adjacent nodes %d and %d share colour %d", v, clash, c)
		}
	}
	return nil
}

// CountColors returns the number of distinct colours used.
func CountColors(colors []int) int {
	seen := make(map[int]bool, len(colors))
	for _, c := range colors {
		seen[c] = true
	}
	return len(seen)
}

// MaxColor returns the largest colour used, or -1 for an empty slice.
func MaxColor(colors []int) int {
	m := -1
	for _, c := range colors {
		if c > m {
			m = c
		}
	}
	return m
}

// VerifyEdgeColoring checks that edgeColors (indexed by edge identifier) is
// a proper edge colouring of g: edges sharing an endpoint have different
// colours.
func VerifyEdgeColoring(g *graph.Graph, edgeColors []int) error {
	if len(edgeColors) != g.M() {
		return fmt.Errorf("coloring: %d colours for %d edges", len(edgeColors), g.M())
	}
	for v := 0; v < g.N(); v++ {
		seen := make(map[int]int)
		for _, id := range g.IncidentEdges(v) {
			c := edgeColors[id]
			if c < 0 {
				return fmt.Errorf("coloring: edge %d uncoloured", id)
			}
			if other, dup := seen[c]; dup {
				return fmt.Errorf("coloring: edges %d and %d at node %d share colour %d", other, id, v, c)
			}
			seen[c] = id
		}
	}
	return nil
}
