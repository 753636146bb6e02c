package coloring

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/local"
)

// This file implements edge colouring NATIVELY in the LOCAL model: instead
// of running the vertex-colouring machine on a pre-built line graph
// (DistributedEdgeColoring, SimFactor = 2), every node simulates the edges
// it OWNS (those to its lower-ID... here: lower-index endpoint) and the
// usual A/B relay pattern delivers the colours of all adjacent edges —
// which live at distance ≤ 2 from the owner — in two real rounds per
// logical round. The reported round count is the honest cost on g.

// eoValueMsg carries edge colours keyed by global edge identifier. (Edge
// identifiers are shared knowledge of the edge's two endpoints, which is
// legitimate LOCAL input.)
type eoValueMsg map[int]int

// eoMachine simulates the line-graph colouring for the edges its node owns.
type eoMachine struct {
	g    *graph.Graph
	me   int
	plan *plan

	info  local.NodeInfo
	owned []int // edge IDs owned by this node (lower endpoint)
	// adjEdges[e] lists the edge IDs adjacent to owned edge e.
	adjEdges map[int][]int
	colors   map[int]int // my owned edges' colours
	heard    map[int]int // colours of edges heard this cycle
	used     []bool      // kwStep's scratch
	err      error
}

func newEOMachine(g *graph.Graph, me int, p *plan) *eoMachine {
	m := &eoMachine{
		g:        g,
		me:       me,
		plan:     p,
		used:     make([]bool, p.target),
		adjEdges: make(map[int][]int),
		colors:   make(map[int]int),
		heard:    make(map[int]int),
	}
	for _, id := range g.IncidentEdges(me) {
		e := g.Edge(id)
		if e.U != me {
			continue // owned by the lower endpoint
		}
		m.owned = append(m.owned, id)
		seen := map[int]bool{id: true}
		var adj []int
		for _, end := range []int{e.U, e.V} {
			for _, other := range g.IncidentEdges(end) {
				if !seen[other] {
					seen[other] = true
					adj = append(adj, other)
				}
			}
		}
		sort.Ints(adj)
		m.adjEdges[id] = adj
	}
	sort.Ints(m.owned)
	return m
}

func (m *eoMachine) Init(info local.NodeInfo) {
	m.info = info
	// Initial colours: locally computable unique values — the owner's ID
	// scaled by the degree bound plus the port index of the edge.
	for _, id := range m.owned {
		e := m.g.Edge(id)
		port := -1
		for i, u := range m.g.Neighbors(m.me) {
			if u == e.V {
				port = i
			}
		}
		m.colors[id] = int(info.ID)*(m.info.MaxDegree) + port
	}
}

func (m *eoMachine) Round(round int, recv []local.Message) ([]local.Message, bool) {
	if m.err != nil {
		return nil, true
	}
	if round%2 == 1 {
		// A round: fold in the forwarded maps, apply the due logical step
		// to every owned edge, broadcast own colours.
		if round > 1 {
			for k := range m.heard {
				delete(m.heard, k)
			}
			for _, raw := range recv {
				if raw == nil {
					continue
				}
				msg, ok := raw.(eoValueMsg)
				if !ok {
					m.err = fmt.Errorf("coloring: unexpected B-round message %T", raw)
					return nil, true
				}
				for id, c := range msg {
					m.heard[id] = c
				}
			}
			step := (round - 3) / 2
			for _, id := range m.owned {
				var neighborColors []int
				for _, adj := range m.adjEdges[id] {
					if c, ok := m.heard[adj]; ok {
						neighborColors = append(neighborColors, c)
					} else if c, ok := m.colors[adj]; ok {
						neighborColors = append(neighborColors, c)
					} else {
						m.err = fmt.Errorf("coloring: edge %d missing colour of adjacent edge %d", id, adj)
						return nil, true
					}
				}
				next, err := m.plan.apply(step, m.colors[id], neighborColors, m.used)
				if err != nil {
					m.err = err
					return nil, true
				}
				m.colors[id] = next
			}
		}
		msg := make(eoValueMsg, len(m.owned))
		for id, c := range m.colors {
			msg[id] = c
		}
		send := make([]local.Message, m.info.Degree())
		for i := range send {
			send[i] = msg
		}
		return send, round >= 2*m.plan.steps+1
	}

	// B round: forward everything received plus own colours.
	msg := make(eoValueMsg, len(recv)+len(m.owned))
	for id, c := range m.colors {
		msg[id] = c
	}
	for _, raw := range recv {
		if raw == nil {
			continue
		}
		in, ok := raw.(eoValueMsg)
		if !ok {
			m.err = fmt.Errorf("coloring: unexpected A-round message %T", raw)
			return nil, true
		}
		for id, c := range in {
			msg[id] = c
		}
	}
	send := make([]local.Message, m.info.Degree())
	for i := range send {
		send[i] = msg
	}
	return send, false
}

// DistributedEdgeColoringNative computes a proper edge colouring of g with
// at most 2Δ−1 colours using the explicit owner-simulation protocol on g
// itself (SimFactor 1). Colours are indexed by edge identifier.
func DistributedEdgeColoringNative(g *graph.Graph, opts local.Options) (*Result, error) {
	delta := g.MaxDegree()
	deltaL := 2*delta - 2 // line-graph degree bound
	if deltaL < 1 {
		deltaL = 1
	}
	target := deltaL + 1
	k0 := int(local.IDSpace(g.N()))*delta + delta
	if opts.SequentialIDs {
		k0 = g.N()*delta + delta
	}
	if k0 < target {
		k0 = target
	}
	p := newPlan(k0, deltaL, target)
	machines := make([]*eoMachine, g.N())
	stats, err := local.Run(g, func(v int) local.Machine {
		machines[v] = newEOMachine(g, v, p)
		return machines[v]
	}, opts)
	if err != nil {
		return nil, err
	}
	colors := make([]int, g.M())
	for i := range colors {
		colors[i] = -1
	}
	for v, m := range machines {
		if m.err != nil {
			return nil, fmt.Errorf("coloring: node %d failed: %w", v, m.err)
		}
		for id, c := range m.colors {
			colors[id] = c
		}
	}
	if err := VerifyEdgeColoring(g, colors); err != nil {
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
