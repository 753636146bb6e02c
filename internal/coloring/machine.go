package coloring

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/local"
)

// Result is the outcome of a distributed colouring run.
type Result struct {
	// Colors is the computed colouring, indexed by node of the graph the
	// algorithm ran on.
	Colors []int
	// Palette is the guaranteed palette size (every colour is < Palette).
	Palette int
	// Rounds is the number of LOCAL rounds on the executed graph.
	Rounds int
	// SimFactor is the number of rounds of the ORIGINAL graph needed to
	// simulate one executed round when the algorithm ran on a derived graph
	// (line graph or square graph); 1 otherwise. The cost on the original
	// graph is Rounds · SimFactor.
	SimFactor int
	// Messages is the total number of messages sent.
	Messages int
}

// plan is the colour reduction of one run: Linial steps from the initial
// palette of k0 colours down to O(Δ²), then Kuhn-Wattenhofer halving down
// to the target palette. Every node would derive the same plan from
// (k0, Δ, target), which is what keeps the machines synchronized without
// coordination messages, so each Distributed* entry point plans once and
// its machines share the plan read-only.
type plan struct {
	linial []Step
	target int
	steps  int // logical steps: len(linial) + the Kuhn-Wattenhofer rounds
}

func newPlan(k0, delta, target int) *plan {
	linial := Schedule(k0, delta)
	finalK := k0
	if len(linial) > 0 {
		finalK = linial[len(linial)-1].NewK()
	}
	return &plan{linial: linial, target: target, steps: len(linial) + kwRounds(finalK, target)}
}

// reads reports whether a node of the given colour reads its neighbours'
// colours in logical step step: every node in a Linial step, only the
// nodes whose class is reduced in a Kuhn-Wattenhofer round (kwReduces).
func (p *plan) reads(step, color int) bool {
	return step < len(p.linial) || kwReduces(p.target, (step-len(p.linial))%p.target, color)
}

// apply is one node's side of logical step step: its colour after the
// step, from its colour and its neighbours'. used is kwStep's scratch.
func (p *plan) apply(step, color int, neighborColors []int, used []bool) (int, error) {
	if step < len(p.linial) {
		return Reduce(p.linial[step], color, neighborColors)
	}
	next, ok := kwStep(p.target, (step-len(p.linial))%p.target, color, neighborColors, used)
	if !ok {
		return 0, fmt.Errorf("coloring: no free colour below target %d", p.target)
	}
	return next, nil
}

// vcMachine is the distributed vertex-colouring machine: Linial colour
// reduction from the ID space down to O(Δ²) colours in O(log* n) rounds,
// followed by Kuhn-Wattenhofer block halving down to the target palette in
// O(Δ·log Δ) further rounds.
//
// Every node follows the same plan, so the phases stay synchronized
// without any coordination messages.
type vcMachine struct {
	info  local.NodeInfo
	plan  *plan
	color int
	used  []bool // kwStep's scratch
	err   error
}

func newVCMachine(p *plan) *vcMachine {
	return &vcMachine{plan: p, used: make([]bool, p.target)}
}

func (m *vcMachine) Init(info local.NodeInfo) {
	m.info = info
	m.color = int(info.ID)
}

func (m *vcMachine) Round(round int, recv []local.Message) ([]local.Message, bool) {
	if m.err != nil {
		return nil, true
	}
	if round > 1 {
		// Process the colours broadcast in the previous round.
		neighborColors := make([]int, 0, len(recv))
		for _, msg := range recv {
			if msg == nil {
				m.err = fmt.Errorf("coloring: missing neighbour colour in round %d", round)
				return nil, true
			}
			c, ok := msg.(int)
			if !ok {
				m.err = fmt.Errorf("coloring: unexpected message type %T", msg)
				return nil, true
			}
			neighborColors = append(neighborColors, c)
		}
		// Round r applies logical step r-2, after the initial broadcast.
		next, err := m.plan.apply(round-2, m.color, neighborColors, m.used)
		if err != nil {
			m.err = err
			return nil, true
		}
		m.color = next
	}
	send := make([]local.Message, m.info.Degree())
	for i := range send {
		send[i] = m.color
	}
	return send, round >= 1+m.plan.steps
}

// smallestFree returns the smallest colour in [0, target) not present in
// blocked, or -1 if all are taken.
func smallestFree(target int, blocked []int) int {
	used := make([]bool, target)
	for _, c := range blocked {
		if c >= 0 && c < target {
			used[c] = true
		}
	}
	for c := 0; c < target; c++ {
		if !used[c] {
			return c
		}
	}
	return -1
}

// DistributedVertexColoring computes a proper vertex colouring of g with
// target colours (target must be at least Δ+1) in O(Δ·log Δ + log* n) LOCAL
// rounds (Linial reduction + Kuhn-Wattenhofer halving).
func DistributedVertexColoring(g *graph.Graph, opts local.Options, target int) (*Result, error) {
	delta := g.MaxDegree()
	if target < delta+1 {
		return nil, fmt.Errorf("coloring: target %d below Δ+1 = %d", target, delta+1)
	}
	k0 := int(local.IDSpace(g.N()))
	if opts.SequentialIDs {
		k0 = g.N()
	}
	if k0 < target {
		k0 = target
	}
	p := newPlan(k0, delta, target)
	machines := make([]*vcMachine, g.N())
	stats, err := local.Run(g, func(v int) local.Machine {
		machines[v] = newVCMachine(p)
		return machines[v]
	}, opts)
	if err != nil {
		return nil, err
	}
	colors := make([]int, g.N())
	for v, m := range machines {
		if m.err != nil {
			return nil, fmt.Errorf("coloring: node %d failed: %w", v, m.err)
		}
		colors[v] = m.color
	}
	if err := Verify(g, colors); err != nil {
		return nil, err
	}
	return &Result{
		Colors:    colors,
		Palette:   target,
		Rounds:    stats.Rounds,
		SimFactor: 1,
		Messages:  stats.MessagesSent,
	}, nil
}

// DistributedEdgeColoring computes a proper edge colouring of g with at most
// 2Δ−1 colours by running the vertex-colouring machine on the line graph
// L(g). One L(g) round is simulated by 2 rounds of g (messages between
// adjacent edges are relayed by the shared endpoint), reflected in
// SimFactor. Colours are indexed by edge identifier of g.
func DistributedEdgeColoring(g *graph.Graph, opts local.Options) (*Result, error) {
	lg := g.LineGraph()
	target := lg.MaxDegree() + 1 // ≤ 2Δ−2+1 = 2Δ−1
	if target < 1 {
		target = 1
	}
	if lg.N() == 0 {
		return &Result{Colors: nil, Palette: target, SimFactor: 2}, nil
	}
	res, err := DistributedVertexColoring(lg, opts, target)
	if err != nil {
		return nil, err
	}
	res.SimFactor = 2
	if err := VerifyEdgeColoring(g, res.Colors); err != nil {
		return nil, err
	}
	return res, nil
}

// DistributedDistance2Coloring computes a distance-2 colouring of g (proper
// on g²) with at most Δ(g²)+1 ≤ Δ²+1 colours by running the
// vertex-colouring machine on the square graph. One g² round is simulated by
// 2 rounds of g, reflected in SimFactor.
//
// This is the substitution for the [FHK16] 2-hop colouring the paper cites
// (see the package comment).
func DistributedDistance2Coloring(g *graph.Graph, opts local.Options) (*Result, error) {
	sq := g.Square()
	target := sq.MaxDegree() + 1
	res, err := DistributedVertexColoring(sq, opts, target)
	if err != nil {
		return nil, err
	}
	res.SimFactor = 2
	if err := VerifyDistance2(g, res.Colors); err != nil {
		return nil, err
	}
	return res, nil
}
