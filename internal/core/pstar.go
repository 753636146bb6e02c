// Package core implements the paper's primary contribution: deterministic,
// local, sequential processes that fix the variables of an LLL instance
// under the exponential criterion p < 2^-d, for variables affecting at most
// two (Theorem 1.1) or three (Theorem 1.3) bad events — together with their
// distributed versions (Corollaries 1.2 and 1.4) that run on the LOCAL-model
// runtime in internal/local.
package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/model"
)

// PStar is the bookkeeping structure of property P* (Definition 3.1): for
// every edge e = {u, v} of the dependency graph it stores two values
// φ_e^u, φ_e^v ∈ [0, 2] with φ_e^u + φ_e^v ≤ 2, such that at all times
//
//	Pr[E_v | fixed variables] ≤ Pr[E_v] · ∏_{e ∋ v} φ_e^v.
//
// (The paper states the invariant with the symmetric bound p in place of the
// per-event probability Pr[E_v]; tracking the per-event base is the same
// proof with a tighter constant and gives better diagnostics.)
//
// All values start at 1; the fixers update only the values on the edges
// spanned by the variable being fixed.
type PStar struct {
	g   *graph.Graph
	phi [][2]float64 // phi[edgeID] = {value at Edge.U, value at Edge.V}
}

// NewPStar returns the initial bookkeeping (all values 1) for the given
// dependency graph.
func NewPStar(g *graph.Graph) *PStar {
	p := &PStar{g: g, phi: make([][2]float64, g.M())}
	for i := range p.phi {
		p.phi[i] = [2]float64{1, 1}
	}
	return p
}

// Value returns φ_e^node for edge id. It panics if node is not an endpoint.
func (p *PStar) Value(edgeID, node int) float64 {
	e := p.g.Edge(edgeID)
	switch node {
	case e.U:
		return p.phi[edgeID][0]
	case e.V:
		return p.phi[edgeID][1]
	default:
		panic(fmt.Sprintf("core: node %d not an endpoint of edge %d", node, edgeID))
	}
}

// Set writes φ_e^node for edge id.
func (p *PStar) Set(edgeID, node int, v float64) {
	e := p.g.Edge(edgeID)
	switch node {
	case e.U:
		p.phi[edgeID][0] = v
	case e.V:
		p.phi[edgeID][1] = v
	default:
		panic(fmt.Sprintf("core: node %d not an endpoint of edge %d", node, edgeID))
	}
}

// EventBound returns ∏_{e ∋ v} φ_e^v, the accumulated increase budget of the
// event at node v. The final guarantee of the fixers is
// Pr[E_v] · EventBound(v) ≤ Pr[E_v] · 2^d < 1.
//
// It walks v's adjacency in place, in ascending neighbour order, without
// allocating: the seq fixer calls it for both events of every fixed
// variable.
func (p *PStar) EventBound(v int) float64 {
	prod := 1.0
	p.g.ForEachNeighbor(v, func(u, id int) {
		if v < u { // v is the edge's lower endpoint, Edge.U
			prod *= p.phi[id][0]
		} else {
			prod *= p.phi[id][1]
		}
	})
	return prod
}

// MaxEdgeSum returns the maximum of φ_e^u + φ_e^v over all edges; P*
// requires it to be at most 2.
func (p *PStar) MaxEdgeSum() float64 {
	m := 0.0
	for _, vals := range p.phi {
		if s := vals[0] + vals[1]; s > m {
			m = s
		}
	}
	return m
}

// MaxEventBound returns the maximum of EventBound(v) over all nodes; the
// theorems guarantee it stays at most 2^d.
func (p *PStar) MaxEventBound() float64 {
	m := 0.0
	for v := 0; v < p.g.N(); v++ {
		if b := p.EventBound(v); b > m {
			m = b
		}
	}
	return m
}

// Snapshot returns the φ table flattened edge-major as
// [φ_e0^U, φ_e0^V, φ_e1^U, φ_e1^V, ...] — the format stored in
// fault.Checkpoint.Phi. The copy is pure: the bookkeeping is unchanged.
func (p *PStar) Snapshot() []float64 {
	out := make([]float64, 0, 2*len(p.phi))
	for _, v := range p.phi {
		out = append(out, v[0], v[1])
	}
	return out
}

// Restore overwrites the φ table from a Snapshot taken on a graph with the
// same edge set.
func (p *PStar) Restore(flat []float64) error {
	if len(flat) != 2*len(p.phi) {
		return fmt.Errorf("core: φ snapshot has %d values, graph needs %d", len(flat), 2*len(p.phi))
	}
	for i := range p.phi {
		p.phi[i] = [2]float64{flat[2*i], flat[2*i+1]}
	}
	return nil
}

// Audit verifies property P* against the instance and the current partial
// assignment: every edge sum is at most 2 (+tol) and every event satisfies
// Pr[E_v | a] ≤ base[v] · EventBound(v) (+tol), where base[v] is the
// unconditional probability of event v. It returns a descriptive error on
// the first violation.
func (p *PStar) Audit(inst *model.Instance, a *model.Assignment, base []float64, tol float64) error {
	for id, vals := range p.phi {
		for _, v := range vals {
			if v < -tol || v > 2+tol || math.IsNaN(v) {
				return fmt.Errorf("core: P* audit: edge %d has value %v outside [0,2]", id, v)
			}
		}
		if s := vals[0] + vals[1]; s > 2+tol {
			return fmt.Errorf("core: P* audit: edge %d sum %v > 2", id, s)
		}
	}
	for v := 0; v < inst.NumEvents(); v++ {
		pr := inst.CondProb(v, a)
		bound := base[v] * p.EventBound(v)
		if pr > bound+tol {
			return fmt.Errorf("core: P* audit: event %d has Pr %v > bound %v", v, pr, bound)
		}
	}
	return nil
}
