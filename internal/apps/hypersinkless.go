package apps

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/hypergraph"
	"repro/internal/model"
)

// HyperSinkless is the rank-3 analogue of relaxed sinkless orientation: on a
// 3-uniform hypergraph, every hyperedge carries one variable that orients
// the hyperedge towards one of its three members (its "head") or, with
// probability δ, towards nobody. The bad event at node v is "every incident
// hyperedge has head v".
//
// Each variable affects exactly the three events of its members, so the
// instance has rank r = 3 and exercises Theorem 1.3. For a hypergraph with
// node degrees ≥ k, the margin is p·2^d ≤ ((1-δ)/3)^k · 2^(2k), which is
// strictly below 1 for δ > 1/4 — the reason the builders default to
// δ = 0.4.
type HyperSinkless struct {
	Instance *model.Instance
	Hyper    *hypergraph.Hypergraph
	// EdgeVar maps a hyperedge identifier to its variable identifier.
	EdgeVar []int
	// Slack is the relaxation parameter δ used at build time.
	Slack float64
	// Rank is the uniform hyperedge size k; the variable value k means
	// "headless" and values 0..k-1 select the head among the (sorted)
	// members.
	Rank int
}

// HyperFree is the variable value meaning "the hyperedge has no head" for
// the 3-uniform instances. (For the general k-uniform builder the free
// value is k; see HyperSinkless.Rank.)
const HyperFree = 3

// NewHyperSinkless builds the instance on the 3-uniform hypergraph h with
// slack δ ∈ (0, 1). All hyperedges must have exactly three members and all
// nodes degree at least one.
func NewHyperSinkless(h *hypergraph.Hypergraph, slack float64) (*HyperSinkless, error) {
	return NewHyperSinklessUniform(h, 3, slack)
}

// NewHyperSinklessUniform builds the relaxed sinkless-orientation instance
// on a k-uniform hypergraph: every hyperedge points at one of its k members
// (uniformly, total probability 1-δ) or at nobody (probability δ); the bad
// event at node v is "every incident hyperedge has head v". Variables have
// rank k, so k = 3 is the Theorem 1.3 regime and k ≥ 4 the Conjecture 1.5
// regime explored by internal/conjecture.
func NewHyperSinklessUniform(h *hypergraph.Hypergraph, k int, slack float64) (*HyperSinkless, error) {
	if slack <= 0 || slack >= 1 {
		return nil, fmt.Errorf("apps: hyper-sinkless slack %v outside (0, 1)", slack)
	}
	if k < 2 {
		return nil, fmt.Errorf("apps: hyper-sinkless rank %d < 2", k)
	}
	for id := 0; id < h.M(); id++ {
		if len(h.Edge(id)) != k {
			return nil, fmt.Errorf("apps: hyperedge %d has %d members, want %d", id, len(h.Edge(id)), k)
		}
	}
	for v := 0; v < h.N(); v++ {
		if h.Degree(v) == 0 {
			return nil, fmt.Errorf("apps: node %d has degree 0", v)
		}
	}
	probs := make([]float64, k+1)
	for i := 0; i < k; i++ {
		probs[i] = (1 - slack) / float64(k)
	}
	probs[k] = slack
	d, err := dist.New(probs)
	if err != nil {
		return nil, fmt.Errorf("apps: building hyperedge distribution: %w", err)
	}

	edgeDist := make([]*dist.Distribution, h.M())
	for id := range edgeDist {
		edgeDist[id] = d
	}
	inst, edgeVar, err := hyperSinklessInstance(h, edgeDist)
	if err != nil {
		return nil, fmt.Errorf("apps: building hyper-sinkless instance: %w", err)
	}
	return &HyperSinkless{Instance: inst, Hyper: h, EdgeVar: edgeVar, Slack: slack, Rank: k}, nil
}

// NewHyperSinklessMixed builds the relaxed sinkless-orientation instance on
// a hypergraph with MIXED hyperedge sizes (each between 2 and maxRank): a
// hyperedge of size k points at one of its members (probability (1-δ)/k
// each) or at nobody (probability δ). Variables therefore have mixed ranks,
// exercising the rank-2 and rank-3 paths of the fixers within one instance.
// The value k of a size-k hyperedge's variable means "headless".
func NewHyperSinklessMixed(h *hypergraph.Hypergraph, maxRank int, slack float64) (*HyperSinkless, error) {
	if slack <= 0 || slack >= 1 {
		return nil, fmt.Errorf("apps: hyper-sinkless slack %v outside (0, 1)", slack)
	}
	for id := 0; id < h.M(); id++ {
		if k := len(h.Edge(id)); k < 2 || k > maxRank {
			return nil, fmt.Errorf("apps: hyperedge %d has %d members, want 2..%d", id, k, maxRank)
		}
	}
	for v := 0; v < h.N(); v++ {
		if h.Degree(v) == 0 {
			return nil, fmt.Errorf("apps: node %d has degree 0", v)
		}
	}
	edgeDist := make([]*dist.Distribution, h.M())
	for id := 0; id < h.M(); id++ {
		k := len(h.Edge(id))
		probs := make([]float64, k+1)
		for i := 0; i < k; i++ {
			probs[i] = (1 - slack) / float64(k)
		}
		probs[k] = slack
		d, err := dist.New(probs)
		if err != nil {
			return nil, fmt.Errorf("apps: building hyperedge distribution: %w", err)
		}
		edgeDist[id] = d
	}
	inst, edgeVar, err := hyperSinklessInstance(h, edgeDist)
	if err != nil {
		return nil, fmt.Errorf("apps: building mixed hyper-sinkless instance: %w", err)
	}
	return &HyperSinkless{Instance: inst, Hyper: h, EdgeVar: edgeVar, Slack: slack, Rank: -1}, nil
}

// hyperSinklessInstance builds the relaxed sinkless-orientation events on
// h: one variable "hedge[members]" per hyperedge, distributed as
// edgeDist[id] (value i heads the hyperedge at its i-th member), and at
// every node v the conjunction "hypersink@v" that every incident hyperedge
// has head v. It returns the instance and the hyperedge-to-variable map.
func hyperSinklessInstance(h *hypergraph.Hypergraph, edgeDist []*dist.Distribution) (*model.Instance, []int, error) {
	names := newNameTable(h.M() + h.N())
	for id := 0; id < h.M(); id++ {
		names.addList("hedge", h.Edge(id))
	}
	for v := 0; v < h.N(); v++ {
		names.add("hypersink@", v)
	}
	names.seal()

	b := model.NewBuilder()
	edgeVar := make([]int, h.M())
	for id := range edgeVar {
		edgeVar[id] = b.AddVariable(edgeDist[id], names.name(id))
	}
	// heads[i] is the bad set {i}, shared by every event whose hyperedge
	// has v as its i-th member.
	heads := make([]int, h.Rank())
	for i := range heads {
		heads[i] = i
	}
	// Per-node scratch, reused: AddConjunctionEvent copies what it keeps.
	deg := h.MaxDegree()
	scope := make([]int, 0, deg)
	badSets := make([][]int, 0, deg)
	dists := make([]*dist.Distribution, 0, deg)
	for v := 0; v < h.N(); v++ {
		scope, badSets, dists = scope[:0], badSets[:0], dists[:0]
		h.ForEachIncident(v, func(id int) {
			i := memberIndex(h.Edge(id), v)
			scope = append(scope, edgeVar[id])
			dists = append(dists, edgeDist[id])
			badSets = append(badSets, heads[i:i+1:i+1])
		})
		model.AddConjunctionEvent(b, scope, badSets, dists, names.name(h.M()+v))
	}
	inst, err := b.Build()
	return inst, edgeVar, err
}

func memberIndex(members []int, v int) int {
	for i, m := range members {
		if m == v {
			return i
		}
	}
	panic(fmt.Sprintf("apps: node %d not a member of hyperedge %v", v, members))
}

// HeadOf returns the head node of hyperedge id under the complete
// assignment a, or -1 if the hyperedge is headless. (The headless value of
// a size-k hyperedge's variable is k, for uniform and mixed instances
// alike.)
func (s *HyperSinkless) HeadOf(edgeID int, a *model.Assignment) int {
	members := s.Hyper.Edge(edgeID)
	val := a.Value(s.EdgeVar[edgeID])
	if val == len(members) {
		return -1
	}
	return members[val]
}

// Sinks returns the nodes that are heads of all their incident hyperedges
// under the complete assignment a. A correct solution has none.
func (s *HyperSinkless) Sinks(a *model.Assignment) []int {
	var sinks []int
	for v := 0; v < s.Hyper.N(); v++ {
		isSink := true
		for _, id := range s.Hyper.Incident(v) {
			if s.HeadOf(id, a) != v {
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
