package coloring

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/local"
)

// This file implements distance-2 colouring NATIVELY in the LOCAL model:
// instead of running the vertex-colouring machine on a pre-built square
// graph (DistributedDistance2Coloring, which accounts the simulation with
// SimFactor = 2), the d2Machine realizes the 2-rounds-per-logical-round
// protocol explicitly — an A round broadcasting one's colour and a B round
// forwarding the received neighbour colours — so the reported round count
// is the honest cost on the original graph. The test suite cross-validates
// the two implementations.

// d2ColorMsg is the A-round payload: the sender's current colour.
type d2ColorMsg int

// d2Pair is one (node ID, colour) entry of a B-round payload.
type d2Pair struct {
	id    uint64
	color int
}

// d2PairsMsg is the B-round payload: the sender's own (ID, colour) followed
// by the colours it heard from its neighbours in the A round.
type d2PairsMsg struct{ pairs []d2Pair }

// d2Machine runs Linial colour reduction + Kuhn-Wattenhofer halving against
// the colours of all nodes within distance 2.
type d2Machine struct {
	info  local.NodeInfo
	plan  *plan
	color int
	// heard holds the colours of the nodes within distance two (excluding
	// self), rebuilt in the A rounds whose step reads them (see fold). A
	// node reached on several paths appears several times; Reduce and
	// kwStep read the colours only as a set. used is kwStep's scratch.
	heard []int
	used  []bool
	// out is the B-round payload. Neighbours read it in the following A
	// round and the next rewrite is a B round later, so one buffer serves
	// every B round. send is the per-port slice, reused every round.
	out  d2PairsMsg
	send []local.Message
	err  error
}

// newD2Machine returns a machine of the distance-2 colouring that follows
// p: logical step t is applied in (odd) real round 2t+3, and the final
// round is 2·p.steps+1.
func newD2Machine(p *plan) *d2Machine {
	return &d2Machine{plan: p}
}

func (m *d2Machine) Init(info local.NodeInfo) {
	m.info = info
	m.color = int(info.ID)
	m.send = make([]local.Message, info.Degree())
	m.used = make([]bool, m.plan.target)
	// Sized once for the largest payloads: a B round forwards this node
	// and its neighbours, and each neighbour's payload adds at most
	// MaxDegree entries to heard (itself and its other neighbours).
	m.out.pairs = make([]d2Pair, 0, info.Degree()+1)
	m.heard = make([]int, 0, info.Degree()*info.MaxDegree)
}

// fold type-checks the B-round payloads in recv and, when keep is set,
// rebuilds heard from them; otherwise heard is left empty. A step that
// does not read the neighbours' colours (plan.reads) skips the copy.
// It reports false, with m.err set, on a payload of the wrong type.
func (m *d2Machine) fold(recv []local.Message, keep bool) bool {
	m.heard = m.heard[:0]
	for _, msg := range recv {
		if msg == nil {
			continue
		}
		pm, ok := msg.(*d2PairsMsg)
		if !ok {
			m.err = fmt.Errorf("coloring: unexpected B-round message %T", msg)
			return false
		}
		if !keep {
			continue
		}
		for _, p := range pm.pairs {
			if p.id != m.info.ID {
				m.heard = append(m.heard, p.color)
			}
		}
	}
	return true
}

func (m *d2Machine) Round(round int, recv []local.Message) ([]local.Message, bool) {
	if m.err != nil {
		return nil, true
	}
	if round%2 == 1 {
		// A round. Fold in the forwarded pairs (sent in the previous B
		// round) where the step reads them, then apply the due logical
		// step and broadcast the colour.
		if round > 1 {
			step := (round - 3) / 2 // logical step index applied this round
			if !m.fold(recv, m.plan.reads(step, m.color)) {
				return nil, true
			}
			next, err := m.plan.apply(step, m.color, m.heard, m.used)
			if err != nil {
				m.err = err
				return nil, true
			}
			m.color = next
		}
		msg := local.Message(d2ColorMsg(m.color))
		for i := range m.send {
			m.send[i] = msg
		}
		return m.send, round >= 2*m.plan.steps+1
	}

	// B round: forward the colours received in the A round, plus our own.
	m.out.pairs = append(m.out.pairs[:0], d2Pair{id: m.info.ID, color: m.color})
	for i, msg := range recv {
		if msg == nil {
			continue
		}
		c, ok := msg.(d2ColorMsg)
		if !ok {
			m.err = fmt.Errorf("coloring: unexpected A-round message %T", msg)
			return nil, true
		}
		m.out.pairs = append(m.out.pairs, d2Pair{id: m.info.NeighborIDs[i], color: int(c)})
	}
	for i := range m.send {
		m.send[i] = &m.out
	}
	return m.send, false
}

// DistributedDistance2Native computes a distance-2 colouring of g with at
// most Δ²+1 colours, running the explicit 2-rounds-per-step protocol on g
// itself (SimFactor 1: the round count is already native).
func DistributedDistance2Native(g *graph.Graph, opts local.Options) (*Result, error) {
	delta := g.MaxDegree()
	deltaSq := delta * delta
	target := deltaSq + 1
	k0 := int(local.IDSpace(g.N()))
	if opts.SequentialIDs {
		k0 = g.N()
	}
	if k0 < target {
		k0 = target
	}
	p := newPlan(k0, deltaSq, target)
	machines := make([]*d2Machine, g.N())
	stats, err := local.Run(g, func(v int) local.Machine {
		machines[v] = newD2Machine(p)
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
	if err := VerifyDistance2(g, colors); err != nil {
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
