// Package apps builds the LLL instances for the application problems the
// paper discusses: sinkless orientation (the canonical problem sitting
// exactly at the threshold p = 2^-d), its relaxed below-threshold variant,
// orientation problems on rank-3 hypergraphs, and relaxed weak splitting.
//
// Each builder returns the model.Instance together with enough metadata to
// interpret a complete assignment in domain terms and to verify the
// domain-specific property directly (independently of the generic
// event-violation check).
package apps

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/model"
)

// Orientation values of an edge variable in sinkless-orientation instances.
const (
	// ToU means the edge points at its lower endpoint (Edge.U).
	ToU = 0
	// ToV means the edge points at its higher endpoint (Edge.V).
	ToV = 1
	// Free means the edge points at neither endpoint (only present in
	// relaxed instances with slack > 0).
	Free = 2
)

// Sinkless is a (possibly relaxed) sinkless-orientation instance on a graph.
//
// Every edge carries one variable; the bad event at node v is "every
// incident edge points at v". With slack = 0 the edge variable is a fair
// coin over {ToU, ToV} and the per-node failure probability is exactly
// 2^-deg(v) — the instance sits exactly at the paper's threshold. With
// slack δ > 0 each edge additionally takes the value Free with probability
// δ, pushing the margin p·2^d down to (1-δ)^d on regular graphs: strictly
// below the threshold, where Theorem 1.1 applies.
type Sinkless struct {
	Instance *model.Instance
	Graph    *graph.Graph
	// EdgeVar maps a graph edge identifier to its variable identifier.
	EdgeVar []int
	// Slack is the relaxation parameter δ used at build time.
	Slack float64
}

// NewSinkless builds a sinkless-orientation instance on g with the given
// slack δ ∈ [0, 1). Nodes of degree 0 are rejected: their bad event would be
// the empty conjunction (probability 1) and the problem unsolvable.
func NewSinkless(g *graph.Graph, slack float64) (*Sinkless, error) {
	if slack < 0 || slack >= 1 {
		return nil, fmt.Errorf("apps: sinkless slack %v outside [0, 1)", slack)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 0 {
			return nil, fmt.Errorf("apps: node %d has degree 0; sinkless orientation is unsolvable", v)
		}
	}
	var d *dist.Distribution
	if slack == 0 {
		d = dist.Uniform(2)
	} else {
		half := (1 - slack) / 2
		var err error
		d, err = dist.New([]float64{half, half, slack})
		if err != nil {
			return nil, fmt.Errorf("apps: building edge distribution: %w", err)
		}
	}

	edgeDist := make([]*dist.Distribution, g.M())
	for id := range edgeDist {
		edgeDist[id] = d
	}
	inst, edgeVar, err := sinklessInstance(model.NewBuilder(), g, edgeDist)
	if err != nil {
		return nil, fmt.Errorf("apps: building sinkless instance: %w", err)
	}
	return &Sinkless{Instance: inst, Graph: g, EdgeVar: edgeVar, Slack: slack}, nil
}

// sinklessInstance builds the sinkless-orientation events on g with the
// empty builder b: one variable "edge{u,v}" per edge, distributed as
// edgeDist[id], and at every node v the conjunction "sink@v" that every
// incident edge points at v. It returns the instance and the
// edge-to-variable map.
func sinklessInstance(b *model.Builder, g *graph.Graph, edgeDist []*dist.Distribution) (*model.Instance, []int, error) {
	names := newNameTable(g.M() + g.N())
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		names.addPair("edge", e.U, e.V)
	}
	for v := 0; v < g.N(); v++ {
		names.add("sink@", v)
	}
	names.seal()

	// Every edge is a slot of both endpoints' events, with one bad value.
	size := model.Size{Vars: g.M(), Events: g.N(), Slots: 2 * g.M(), BadValues: 2 * g.M()}
	for _, d := range edgeDist {
		size.Values += 2 * d.Size()
	}
	b.Grow(size)
	b.HintGraph(g)
	edgeVar := make([]int, g.M())
	for id := range edgeVar {
		edgeVar[id] = b.AddVariable(edgeDist[id], names.name(id))
	}
	// Per-node scratch, reused: AddConjunctionEvent copies what it keeps.
	deg := g.MaxDegree()
	scope := make([]int, 0, deg)
	badSets := make([][]int, 0, deg)
	dists := make([]*dist.Distribution, 0, deg)
	toU, toV := []int{ToU}, []int{ToV}
	for v := 0; v < g.N(); v++ {
		scope, badSets, dists = scope[:0], badSets[:0], dists[:0]
		g.ForEachNeighbor(v, func(u, id int) {
			scope = append(scope, edgeVar[id])
			dists = append(dists, edgeDist[id])
			if v < u { // v is the edge's lower endpoint, Edge.U
				badSets = append(badSets, toU)
			} else {
				badSets = append(badSets, toV)
			}
		})
		model.AddConjunctionEvent(b, scope, badSets, dists, names.name(g.M()+v))
	}
	inst, err := b.Build()
	return inst, edgeVar, err
}

// NewSinklessWithMargin builds a relaxed sinkless-orientation instance on a
// regular graph g whose exponential-criterion margin p·2^d equals the given
// value (0 < margin ≤ 1); margin 1 is the exact threshold instance. The
// sweep of experiment T5 is built on this knob.
func NewSinklessWithMargin(g *graph.Graph, margin float64) (*Sinkless, error) {
	if margin <= 0 || margin > 1 {
		return nil, fmt.Errorf("apps: margin %v outside (0, 1]", margin)
	}
	deg := g.MaxDegree()
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != deg {
			return nil, fmt.Errorf("apps: NewSinklessWithMargin needs a regular graph; node %d has degree %d != %d", v, g.Degree(v), deg)
		}
	}
	// On a d-regular graph the margin is ((1-δ)/2)^d · 2^d = (1-δ)^d.
	slack := 1 - math.Pow(margin, 1/float64(deg))
	if slack < 0 {
		slack = 0
	}
	return NewSinkless(g, slack)
}

// NewSinklessBiased builds a sinkless-orientation instance on g where edge
// id points at node alphaHead[id] (which must be one of its endpoints) with
// probability alpha and at the other endpoint with probability 1-alpha —
// and there is NO third value. Unlike the slack relaxation, this family
// offers the fixer no "escape" value that kills both events: every choice
// commits to a real orientation, so below-threshold runs exercise the full
// weighted Theorem 1.1 dynamics. A nil alphaHead defaults to the lower
// endpoint of every edge (note this can concentrate probability on
// low-index nodes; use NewSinklessBiasedCycle for the balanced family).
func NewSinklessBiased(g *graph.Graph, alpha float64, alphaHead []int) (*Sinkless, error) {
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("apps: bias %v outside (0, 1)", alpha)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 0 {
			return nil, fmt.Errorf("apps: node %d has degree 0; sinkless orientation is unsolvable", v)
		}
	}
	if alphaHead == nil {
		alphaHead = make([]int, g.M())
		for id := 0; id < g.M(); id++ {
			alphaHead[id] = g.Edge(id).U
		}
	}
	if len(alphaHead) != g.M() {
		return nil, fmt.Errorf("apps: %d alpha heads for %d edges", len(alphaHead), g.M())
	}
	edgeDist := make([]*dist.Distribution, g.M())
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		// Value ToU always means "points at e.U"; the bias decides which
		// endpoint carries probability alpha.
		var probs []float64
		switch alphaHead[id] {
		case e.U:
			probs = []float64{alpha, 1 - alpha}
		case e.V:
			probs = []float64{1 - alpha, alpha}
		default:
			return nil, fmt.Errorf("apps: alpha head %d is not an endpoint of edge {%d,%d}", alphaHead[id], e.U, e.V)
		}
		d, err := dist.New(probs)
		if err != nil {
			return nil, fmt.Errorf("apps: building biased edge distribution: %w", err)
		}
		edgeDist[id] = d
	}
	inst, edgeVar, err := sinklessInstance(model.NewBuilder(), g, edgeDist)
	if err != nil {
		return nil, fmt.Errorf("apps: building biased sinkless instance: %w", err)
	}
	return &Sinkless{Instance: inst, Graph: g, EdgeVar: edgeVar, Slack: 0}, nil
}

// NewSinklessBiasedCycle builds the balanced biased family on the cycle
// C_n: every edge points at its cycle-successor endpoint with probability
// alpha, so EVERY node's failure probability is exactly α(1-α) and the
// criterion margin is exactly 4α(1-α) — strictly below 1 for α ≠ 1/2 and
// exactly the threshold at α = 1/2.
func NewSinklessBiasedCycle(n int, alpha float64) (*Sinkless, error) {
	g := graph.Cycle(n)
	heads := make([]int, g.M())
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		// Successor of u along the cycle: u+1 mod n. The wrap edge {0,n-1}
		// is directed n-1 -> 0.
		if e.V == e.U+1 {
			heads[id] = e.V
		} else {
			heads[id] = 0 // wrap edge {0, n-1}: successor of n-1 is 0
		}
	}
	return NewSinklessBiased(g, alpha, heads)
}

// NoisySinkless is a sinkless-orientation instance with an ADDITIVE failure
// mode: the bad event at node v occurs if every incident edge points at v
// OR v's private alarm coin fires (probability noise). Its per-node failure
// probability is
//
//	p = noise + (1-noise)·2^-deg(v)  >  2^-deg(v),
//
// so the instance sits ABOVE the exponential threshold — the regime between
// exponential and polynomial criteria the paper's introduction asks about.
// The deterministic fixers carry no guarantee here (margins exceed 1),
// while randomized Moser-Tardos still converges whenever ep(d+1) < 1.
type NoisySinkless struct {
	Instance *model.Instance
	Graph    *graph.Graph
	// EdgeVar maps a graph edge identifier to its variable identifier.
	EdgeVar []int
	// CoinVar maps a node to its private alarm variable.
	CoinVar []int
	// Noise is the additive failure probability.
	Noise float64
}

// NewNoisySinkless builds the noisy instance on g with the given additive
// noise ∈ (0, 1).
func NewNoisySinkless(g *graph.Graph, noise float64) (*NoisySinkless, error) {
	if noise <= 0 || noise >= 1 {
		return nil, fmt.Errorf("apps: noise %v outside (0, 1)", noise)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 0 {
			return nil, fmt.Errorf("apps: node %d has degree 0", v)
		}
	}
	edgeDist := dist.Uniform(2)
	coinDist, err := dist.New([]float64{1 - noise, noise})
	if err != nil {
		return nil, fmt.Errorf("apps: building coin distribution: %w", err)
	}

	b := model.NewBuilder()
	edgeVar := make([]int, g.M())
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		edgeVar[id] = b.AddVariable(edgeDist, fmt.Sprintf("edge{%d,%d}", e.U, e.V))
	}
	coinVar := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		coinVar[v] = b.AddVariable(coinDist, fmt.Sprintf("alarm%d", v))
	}
	for v := 0; v < g.N(); v++ {
		ids := g.IncidentEdges(v)
		scope := make([]int, 0, len(ids)+1)
		toMe := make([]int, 0, len(ids)) // value of scope[i] meaning "points at v"
		for _, id := range ids {
			scope = append(scope, edgeVar[id])
			if g.Edge(id).U == v {
				toMe = append(toMe, ToU)
			} else {
				toMe = append(toMe, ToV)
			}
		}
		scope = append(scope, coinVar[v])
		coinPos := len(scope) - 1
		bad := func(vals []int) bool {
			if vals[coinPos] == 1 {
				return true
			}
			for i, want := range toMe {
				if vals[i] != want {
					return false
				}
			}
			return true
		}
		condProb := func(vals []int, fixed []bool) float64 {
			// Pr[coin OR all-incoming] = 1 - (1 - pc)(1 - pin), the two
			// factors being independent.
			pc := noise
			if fixed[coinPos] {
				if vals[coinPos] == 1 {
					return 1
				}
				pc = 0
			}
			pin := 1.0
			for i, want := range toMe {
				if fixed[i] {
					if vals[i] != want {
						pin = 0
						break
					}
					continue
				}
				pin *= 0.5
			}
			return 1 - (1-pc)*(1-pin)
		}
		b.AddEvent(scope, bad, condProb, fmt.Sprintf("noisysink@%d", v))
	}
	inst, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("apps: building noisy sinkless instance: %w", err)
	}
	return &NoisySinkless{Instance: inst, Graph: g, EdgeVar: edgeVar, CoinVar: coinVar, Noise: noise}, nil
}

// NewNoisySinklessWithP builds the noisy instance on a regular graph so
// that every event's probability is exactly p, which must exceed 2^-deg.
func NewNoisySinklessWithP(g *graph.Graph, p float64) (*NoisySinkless, error) {
	deg := g.MaxDegree()
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != deg {
			return nil, fmt.Errorf("apps: NewNoisySinklessWithP needs a regular graph")
		}
	}
	base := math.Pow(2, -float64(deg))
	if p <= base || p >= 1 {
		return nil, fmt.Errorf("apps: p=%v outside (2^-deg, 1) = (%v, 1)", p, base)
	}
	// p = noise + (1-noise)·base  =>  noise = (p-base)/(1-base).
	noise := (p - base) / (1 - base)
	return NewNoisySinkless(g, noise)
}

// OrientationOf returns the node the edge points at under the complete
// assignment a, or -1 if the edge is Free.
func (s *Sinkless) OrientationOf(edgeID int, a *model.Assignment) int {
	e := s.Graph.Edge(edgeID)
	switch a.Value(s.EdgeVar[edgeID]) {
	case ToU:
		return e.U
	case ToV:
		return e.V
	default:
		return -1
	}
}

// Sinks returns the nodes that are sinks (every incident edge points at
// them) under the complete assignment a. A correct solution has none.
func (s *Sinkless) Sinks(a *model.Assignment) []int {
	var sinks []int
	for v := 0; v < s.Graph.N(); v++ {
		isSink := true
		for _, id := range s.Graph.IncidentEdges(v) {
			if s.OrientationOf(id, a) != v {
				isSink = false
				break
			}
		}
		if isSink {
			sinks = append(sinks, v)
		}
	}
	return sinks
}
