package core

import (
	"fmt"
	"sort"

	"repro/internal/coloring"
	"repro/internal/local"
	"repro/internal/model"
)

// This file keeps the distributed fixers' original transport as a test-only
// reference: every node broadcasts its entire view (every fixing and φ entry
// it has ever learned) every round, and receivers merge it whole. Knowledge
// floods the dependency graph, so the reference reads a superset of what
// any actor needs; the delta-relay machine must reproduce its DistResult
// exactly (TestDeltaRelayMatchesFlooding).

// phiKey identifies one side of a dependency edge — the φ value at event at
// on the edge — as a plain struct, independently of the machine's packed
// phiID.
type phiKey struct {
	edge pairKey
	at   int
}

// stateMsg is the full local view a flooding node broadcasts each round.
type stateMsg struct {
	fixings map[int]int
	phi     map[phiKey]phiEntry
}

// floodMachine is the flooding reference machine of the distributed fixers.
type floodMachine struct {
	inst       *model.Instance
	orc        oracle
	me         int
	opts       Options
	mode       distMode
	numClasses int
	myClass    int
	edgeClass  map[int]int

	info  local.NodeInfo
	vars  []int
	known map[int]int
	view  *model.Assignment
	phi   map[phiKey]phiEntry
	err   error
}

func (m *floodMachine) Init(info local.NodeInfo) {
	m.info = info
	m.known = make(map[int]int)
	m.view = model.NewAssignment(m.inst)
	m.phi = make(map[phiKey]phiEntry)
	for vid := 0; vid < m.inst.NumVars(); vid++ {
		for _, e := range m.inst.Var(vid).Events {
			if e == m.me {
				m.vars = append(m.vars, vid)
				break
			}
		}
	}
	sort.Ints(m.vars)
}

func (m *floodMachine) phiValue(edge pairKey, at int) float64 {
	if e, ok := m.phi[phiKey{edge: edge, at: at}]; ok {
		return e.val
	}
	return 1
}

func (m *floodMachine) setPhi(edge pairKey, at int, val float64, round int) {
	m.phi[phiKey{edge: edge, at: at}] = phiEntry{val: val, ver: round}
}

func (m *floodMachine) learn(vid, val int) error {
	if old, ok := m.known[vid]; ok {
		if old != val {
			return fmt.Errorf("core: conflicting values %d and %d for variable %d", old, val, vid)
		}
		return nil
	}
	m.known[vid] = val
	m.view.Fix(vid, val)
	return nil
}

func (m *floodMachine) merge(msg *stateMsg) error {
	for vid, val := range msg.fixings {
		if err := m.learn(vid, val); err != nil {
			return err
		}
	}
	for k, e := range msg.phi {
		if cur, ok := m.phi[k]; !ok || e.ver > cur.ver {
			m.phi[k] = e
		}
	}
	return nil
}

func (m *floodMachine) Round(round int, recv []local.Message) ([]local.Message, bool) {
	if m.err != nil {
		return nil, true
	}
	for _, msg := range recv {
		if msg == nil {
			continue
		}
		if err := m.merge(msg.(*stateMsg)); err != nil {
			m.err = err
			return nil, true
		}
	}
	switch {
	case round == 1:
		m.fixPrivateVars()
	case round%2 == 0:
		if class := (round - 2) / 2; class < m.numClasses {
			if m.mode == modeEdgeClasses {
				m.actEdgeClass(class, round)
			} else if m.myClass == class {
				m.actNodeClass(round)
			}
		}
	}
	if m.err != nil {
		return nil, true
	}
	snapshot := &stateMsg{
		fixings: make(map[int]int, len(m.known)),
		phi:     make(map[phiKey]phiEntry, len(m.phi)),
	}
	for vid, val := range m.known {
		snapshot.fixings[vid] = val
	}
	for k, e := range m.phi {
		snapshot.phi[k] = e
	}
	send := make([]local.Message, m.info.Degree())
	for i := range send {
		send[i] = snapshot
	}
	return send, round >= 2*m.numClasses+1
}

func (m *floodMachine) fixPrivateVars() {
	for _, vid := range m.vars {
		events := m.inst.Var(vid).Events
		if len(events) != 1 || events[0] != m.me {
			continue
		}
		if _, fixed := m.known[vid]; fixed {
			continue
		}
		if m.err = m.learn(vid, chooseRank1(m.orc, m.view, vid, m.me, m.opts)); m.err != nil {
			return
		}
	}
}

func (m *floodMachine) actEdgeClass(class, round int) {
	for _, vid := range m.vars {
		if _, fixed := m.known[vid]; fixed {
			continue
		}
		events := m.inst.Var(vid).Events
		if len(events) != 2 {
			continue
		}
		other := events[0]
		if other == m.me {
			other = events[1]
		}
		if m.me > other || m.edgeClass[other] != class {
			continue
		}
		m.fixRank2Local(vid, events[0], events[1], round)
		if m.err != nil {
			return
		}
	}
}

func (m *floodMachine) actNodeClass(round int) {
	for _, vid := range m.vars {
		if _, fixed := m.known[vid]; fixed {
			continue
		}
		events := m.inst.Var(vid).Events
		switch len(events) {
		case 1:
			m.err = m.learn(vid, chooseRank1(m.orc, m.view, vid, m.me, m.opts))
		case 2:
			m.fixRank2Local(vid, events[0], events[1], round)
		case 3:
			m.fixRank3Local(vid, events[0], events[1], events[2], round)
		default:
			m.err = fmt.Errorf("%w: variable %d affects %d", ErrRankTooHigh, vid, len(events))
		}
		if m.err != nil {
			return
		}
	}
}

func (m *floodMachine) fixRank2Local(vid, u, v, round int) {
	edge := mkPair(u, v)
	val, newU, newV, _ := chooseRank2(m.orc, m.view, vid, u, v, m.phiValue(edge, u), m.phiValue(edge, v), m.opts)
	if m.err = m.learn(vid, val); m.err != nil {
		return
	}
	m.setPhi(edge, u, newU, round)
	m.setPhi(edge, v, newV, round)
}

func (m *floodMachine) fixRank3Local(vid, u, v, w, round int) {
	e, e1, e2 := mkPair(u, v), mkPair(u, w), mkPair(v, w)
	a := m.phiValue(e, u) * m.phiValue(e1, u)
	b := m.phiValue(e, v) * m.phiValue(e2, v)
	c := m.phiValue(e1, w) * m.phiValue(e2, w)
	val, wit, _, err := chooseRank3(m.orc, m.view, vid, u, v, w, a, b, c, m.opts)
	if err != nil {
		m.err = err
		return
	}
	if m.err = m.learn(vid, val); m.err != nil {
		return
	}
	m.setPhi(e, u, wit.A1, round)
	m.setPhi(e1, u, wit.A2, round)
	m.setPhi(e, v, wit.B1, round)
	m.setPhi(e2, v, wit.B3, round)
	m.setPhi(e1, w, wit.C2, round)
	m.setPhi(e2, w, wit.C3, round)
}

// floodFixDistributed runs Corollary 1.2 (rank 2) or 1.4 (rank 3) with the
// flooding reference machines, on the same colourings as FixDistributed2
// and FixDistributed3.
func floodFixDistributed(inst *model.Instance, rank int, opts Options, lopts local.Options) (*DistResult, error) {
	opts = opts.withDefaults()
	g := inst.DependencyGraph()
	var col *coloring.Result
	var err error
	if rank == 2 {
		col, err = coloring.DistributedEdgeColoringNative(g, lopts)
	} else {
		col, err = coloring.DistributedDistance2Native(g, lopts)
	}
	if err != nil {
		return nil, err
	}
	orc := newOracle(inst)
	machines := make([]*floodMachine, g.N())
	stats, err := local.Run(g, func(v int) local.Machine {
		m := &floodMachine{inst: inst, orc: orc, me: v, opts: opts, numClasses: col.Palette}
		if rank == 2 {
			m.mode = modeEdgeClasses
			m.edgeClass = make(map[int]int, g.Degree(v))
			g.ForEachNeighbor(v, func(u, edgeID int) { m.edgeClass[u] = col.Colors[edgeID] })
		} else {
			m.mode, m.myClass = modeNodeClasses, col.Colors[v]
		}
		machines[v] = m
		return m
	}, lopts)
	if err != nil {
		return nil, err
	}
	a := model.NewAssignment(inst)
	for v, m := range machines {
		if m.err != nil {
			return nil, fmt.Errorf("node %d: %w", v, m.err)
		}
		for vid, val := range m.known {
			if !a.Fixed(vid) {
				a.Fix(vid, val)
			} else if a.Value(vid) != val {
				return nil, fmt.Errorf("nodes disagree on variable %d", vid)
			}
		}
	}
	for vid := 0; vid < inst.NumVars(); vid++ {
		if !a.Fixed(vid) {
			a.Fix(vid, 0)
		}
	}
	violated, err := newOracle(inst).CountViolated(a)
	if err != nil {
		return nil, err
	}
	coloringRounds := col.Rounds * col.SimFactor
	return &DistResult{
		Assignment:     a,
		ColoringRounds: coloringRounds,
		FixingRounds:   stats.Rounds,
		TotalRounds:    coloringRounds + stats.Rounds,
		Classes:        col.Palette,
		Messages:       stats.MessagesSent,
		ViolatedEvents: violated,
		LocalStats:     stats,
	}, nil
}
