package core

import (
	"fmt"
	"sort"

	"repro/internal/coloring"
	"repro/internal/local"
	"repro/internal/model"
)

// This file implements the distributed versions of the paper's fixers as
// LOCAL-model machines running on the dependency graph:
//
//   - Corollary 1.2 (r ≤ 2): edge-colour the dependency graph, then iterate
//     over the colour classes; in its class, the variable on an edge is
//     fixed by the edge's owner endpoint. Edges of one class form a
//     matching, so no two simultaneous fixes share an event.
//   - Corollary 1.4 (r ≤ 3): distance-2 colour the dependency graph, then
//     iterate over the colour classes; in its class, a node fixes ALL of its
//     still-unfixed variables. Same-class nodes are at distance ≥ 3, so
//     their 1-hop neighbourhoods — and hence the events and φ values they
//     touch — are disjoint.
//
// The machines execute on the LOCAL runtime's sharded worker-pool engine
// (internal/engine); lopts.Workers selects the worker count. Runs are
// bit-for-bit deterministic for every worker count: same-class actors touch
// disjoint state by construction (matchings / distance-3 separation), and
// each machine's view is merged only from its own inbox.
//
// Every class takes a two-round cycle: an act round in which the scheduled
// nodes fix variables (using the chooseRank* kernels on their local view),
// and an echo round in which their neighbours pass the new entries one hop
// further. Each round a node sends one message, shared by all its ports,
// holding the fixings and φ entries it produced this round plus the entries
// it received this round from their producers, so every entry travels
// exactly two hops. That suffices: an actor reads only the fixings of the
// variables in the scopes of its closed neighbourhood's events and φ on the
// edges among those events, all produced within distance two, and an entry
// produced in one act round reaches distance two at the start of the next,
// before anyone acts. Messages therefore hold O(d · scope) entries,
// independent of n. Each φ entry carries the round in which it was
// written; merging keeps the newest entry.

// pairKey identifies a dependency edge by its two event endpoints.
type pairKey struct{ lo, hi int }

func mkPair(a, b int) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{lo: a, hi: b}
}

// phiID identifies one side of a dependency edge in one word: the φ value
// at endpoint at of the edge {lo, hi}, packed as lo in bits 32–62, hi in
// bits 1–31 and the side (0 at lo, 1 at hi) in bit 0, so a φ table hashes
// one word per lookup. The packing is injective while every event index is
// below maxPhiEvents, which FixDistributed2 and FixDistributed3 check.
type phiID uint64

// maxPhiEvents bounds the events of an instance whose φ entries phiID can
// key.
const maxPhiEvents = 1 << 31

func phiOf(edge pairKey, at int) phiID {
	k := phiID(edge.lo)<<32 | phiID(edge.hi)<<1
	if at == edge.hi {
		k |= 1
	}
	return k
}

// checkPhiEvents rejects an instance with too many events for phiID.
func checkPhiEvents(events int) error {
	if int64(events) >= maxPhiEvents {
		return fmt.Errorf("core: %d events; the distributed fixers need fewer than 2^31", events)
	}
	return nil
}

// phiEntry is a versioned φ value; Ver is the round in which it was written.
type phiEntry struct {
	val float64
	ver int
}

// fixing records that variable vid was fixed to value val.
type fixing struct{ vid, val int }

// phiUpdate is one versioned φ entry.
type phiUpdate struct {
	key phiID
	phiEntry
}

// delta is a batch of fixings and φ entries.
type delta struct {
	fixings []fixing
	phi     []phiUpdate
}

func (d *delta) reset() {
	d.fixings = d.fixings[:0]
	d.phi = d.phi[:0]
}

// fixMsg is the message a node sends on every port in one round: own holds
// the entries it produced this round, relay the entries it received this
// round from their producers. A receiver merges both and relays only own.
type fixMsg struct {
	own, relay delta
}

type distMode int

const (
	// modeEdgeClasses drives Corollary 1.2 (classes = edge colours).
	modeEdgeClasses distMode = iota + 1
	// modeNodeClasses drives Corollary 1.4 (classes = distance-2 node
	// colours).
	modeNodeClasses
)

// lllMachine is the per-event LOCAL machine of the distributed fixers.
type lllMachine struct {
	inst *model.Instance
	orc  oracle // shared read-only by all machines of one run
	me   int    // my event identifier (= my dependency-graph node)
	opts Options
	mode distMode
	// obs is shared by all machines of one run (atomic collectors); nil
	// when Options.Metrics is unset.
	obs *fixObs

	numClasses int
	myClass    int         // modeNodeClasses: my distance-2 colour
	edgeClass  map[int]int // modeEdgeClasses: neighbour event -> edge colour

	vars []int             // variables affecting my event, sorted
	view *model.Assignment // the fixings I know of
	phi  map[phiID]phiEntry
	// Receivers read a round's message during the next round, so the
	// machine alternates two message buffers by round parity; out is this
	// round's. send is the per-port slice, reused every round.
	bufs [2]fixMsg
	out  *fixMsg
	send []local.Message
	err  error
}

func (m *lllMachine) Init(info local.NodeInfo) {
	m.view = model.NewAssignment(m.inst)
	// The φ table is sized once, for the node's dependency degree d. It
	// collects the φ entries produced within distance two, a number that
	// grows with d²: on rank-3 hyper-sinkless at d = 5 and 6 it ends at
	// 3d²–7d² entries, so 4d(d+1) lets most tables fill without growing and
	// rehashing.
	d := info.Degree()
	m.phi = make(map[phiID]phiEntry, 4*d*(d+1))
	m.vars = append([]int(nil), m.inst.Event(m.me).Scope...)
	sort.Ints(m.vars)
	m.send = make([]local.Message, info.Degree())
}

func (m *lllMachine) totalRounds() int { return 2*m.numClasses + 1 }

func (m *lllMachine) phiValue(edge pairKey, at int) float64 {
	if e, ok := m.phi[phiOf(edge, at)]; ok {
		return e.val
	}
	return 1
}

// setPhi writes a φ entry and announces its key in this round's message.
// An actor may write one key twice in a round (two hyperedges sharing a
// pair of events, or two variables on one edge); the key is announced once
// and its final value is read back when the message is sealed, because
// merging keeps the first of two entries with equal versions.
func (m *lllMachine) setPhi(edge pairKey, at int, val float64, round int) {
	k := phiOf(edge, at)
	if cur, ok := m.phi[k]; !ok || cur.ver < round {
		m.out.own.phi = append(m.out.own.phi, phiUpdate{key: k})
	}
	m.phi[k] = phiEntry{val: val, ver: round}
}

func (m *lllMachine) learn(vid, val int) error {
	if m.view.Fixed(vid) {
		if old := m.view.Value(vid); old != val {
			return fmt.Errorf("core: conflicting values %d and %d for variable %d", old, val, vid)
		}
		return nil
	}
	m.view.Fix(vid, val)
	return nil
}

// fix records my own fixing of vid and announces it in this round's
// message.
func (m *lllMachine) fix(vid, val int) {
	if err := m.learn(vid, val); err != nil {
		m.err = err
		return
	}
	m.out.own.fixings = append(m.out.own.fixings, fixing{vid: vid, val: val})
}

func (m *lllMachine) merge(d *delta) error {
	for _, f := range d.fixings {
		if err := m.learn(f.vid, f.val); err != nil {
			return err
		}
	}
	for _, u := range d.phi {
		if cur, ok := m.phi[u.key]; !ok || u.ver > cur.ver {
			m.phi[u.key] = u.phiEntry
		}
	}
	return nil
}

func (m *lllMachine) Round(round int, recv []local.Message) ([]local.Message, bool) {
	if m.err != nil {
		return nil, true
	}
	m.out = &m.bufs[round%2]
	m.out.own.reset()
	m.out.relay.reset()
	for _, msg := range recv {
		if msg == nil {
			continue
		}
		fm, ok := msg.(*fixMsg)
		if !ok {
			m.err = fmt.Errorf("core: unexpected message type %T", msg)
			return nil, true
		}
		if err := m.merge(&fm.own); err != nil {
			m.err = err
			return nil, true
		}
		if err := m.merge(&fm.relay); err != nil {
			m.err = err
			return nil, true
		}
		m.out.relay.fixings = append(m.out.relay.fixings, fm.own.fixings...)
		m.out.relay.phi = append(m.out.relay.phi, fm.own.phi...)
	}

	switch {
	case round == 1:
		// Every node fixes its private (rank-1) variables in parallel;
		// they affect only the node's own event.
		m.fixPrivateVars()
	case round%2 == 0:
		class := (round - 2) / 2
		if class < m.numClasses {
			m.actOnClass(class, round)
		}
	}
	if m.err != nil {
		return nil, true
	}

	// Seal the message: every announced φ key carries its final value.
	for i := range m.out.own.phi {
		m.out.own.phi[i].phiEntry = m.phi[m.out.own.phi[i].key]
	}
	for i := range m.send {
		m.send[i] = m.out
	}
	return m.send, round >= m.totalRounds()
}

func (m *lllMachine) fixPrivateVars() {
	for _, vid := range m.vars {
		if len(m.inst.Var(vid).Events) != 1 || m.view.Fixed(vid) {
			continue
		}
		val := chooseRank1(m.orc, m.view, vid, m.me, m.opts)
		m.obs.step(m.inst.Var(vid).Dist.Size(), 1, false)
		if m.fix(vid, val); m.err != nil {
			return
		}
	}
}

func (m *lllMachine) actOnClass(class, round int) {
	switch m.mode {
	case modeEdgeClasses:
		m.actEdgeClass(class, round)
	case modeNodeClasses:
		if m.myClass == class {
			m.actNodeClass(round)
		}
	}
}

// actEdgeClass fixes, as owner, all variables on my incident
// dependency-graph edges of the given colour class. The owner of an edge is
// its lower-indexed event endpoint.
func (m *lllMachine) actEdgeClass(class, round int) {
	for _, vid := range m.vars {
		if m.view.Fixed(vid) {
			continue
		}
		events := m.inst.Var(vid).Events
		if len(events) != 2 {
			continue // rank-1 handled in round 1; rank-3 not allowed in this mode
		}
		other := events[0]
		if other == m.me {
			other = events[1]
		}
		if m.me > other {
			continue // the other endpoint owns this edge
		}
		if m.edgeClass[other] != class {
			continue
		}
		m.fixRank2Local(vid, events[0], events[1], round)
		if m.err != nil {
			return
		}
	}
}

// actNodeClass fixes all of my still-unfixed variables (it is my colour
// class's turn).
func (m *lllMachine) actNodeClass(round int) {
	for _, vid := range m.vars {
		if m.view.Fixed(vid) {
			continue
		}
		events := m.inst.Var(vid).Events
		switch len(events) {
		case 1:
			// Already handled in round 1; fix defensively if still open.
			val := chooseRank1(m.orc, m.view, vid, m.me, m.opts)
			m.obs.step(m.inst.Var(vid).Dist.Size(), 1, false)
			m.fix(vid, val)
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

func (m *lllMachine) fixRank2Local(vid, u, v, round int) {
	edge := mkPair(u, v)
	s := m.phiValue(edge, u)
	t := m.phiValue(edge, v)
	val, newU, newV, fallback := chooseRank2(m.orc, m.view, vid, u, v, s, t, m.opts)
	m.obs.step(m.inst.Var(vid).Dist.Size(), 2, fallback)
	if m.fix(vid, val); m.err != nil {
		return
	}
	m.setPhi(edge, u, newU, round)
	m.setPhi(edge, v, newV, round)
	m.obs.phiEdge(newU + newV)
}

func (m *lllMachine) fixRank3Local(vid, u, v, w, round int) {
	e := mkPair(u, v)
	e1 := mkPair(u, w)
	e2 := mkPair(v, w)
	a := m.phiValue(e, u) * m.phiValue(e1, u)
	b := m.phiValue(e, v) * m.phiValue(e2, v)
	c := m.phiValue(e1, w) * m.phiValue(e2, w)
	val, wit, fallback, err := chooseRank3(m.orc, m.view, vid, u, v, w, a, b, c, m.opts)
	if err != nil {
		m.err = err
		return
	}
	m.obs.step(m.inst.Var(vid).Dist.Size(), 3, fallback)
	if m.fix(vid, val); m.err != nil {
		return
	}
	m.setPhi(e, u, wit.A1, round)
	m.setPhi(e1, u, wit.A2, round)
	m.setPhi(e, v, wit.B1, round)
	m.setPhi(e2, v, wit.B3, round)
	m.setPhi(e1, w, wit.C2, round)
	m.setPhi(e2, w, wit.C3, round)
	m.obs.phiEdge(wit.A1 + wit.B1)
	m.obs.phiEdge(wit.A2 + wit.C2)
	m.obs.phiEdge(wit.B3 + wit.C3)
}

// DistResult is the outcome of a distributed fixing run.
type DistResult struct {
	Assignment *model.Assignment
	// ColoringRounds is the LOCAL-round cost of the colouring phase on the
	// dependency graph (derived-graph rounds already multiplied by the
	// simulation factor).
	ColoringRounds int
	// FixingRounds is the LOCAL-round cost of the fixing phase.
	FixingRounds int
	// TotalRounds = ColoringRounds + FixingRounds.
	TotalRounds int
	// Classes is the number of colour classes iterated.
	Classes int
	// Messages counts the messages of the fixing phase.
	Messages int
	// ViolatedEvents counts bad events under the final assignment (0 under
	// the criterion p < 2^-d).
	ViolatedEvents int
	// LocalStats is the LOCAL runtime's execution record of the fixing
	// phase. On a failed or cancelled run it holds the partial stats up to
	// the failure (see local.Options.Ctx: cancellation during the fixing
	// phase yields a partial DistResult with no Assignment; cancellation
	// during the colouring phase yields a nil result, like any other
	// colouring failure).
	LocalStats local.Stats
}

// FixDistributed2 is Corollary 1.2: a deterministic distributed algorithm
// for LLL instances whose variables affect at most two events, running on
// the dependency graph in O(poly d + log* n) rounds (edge colouring + one
// two-round cycle per colour class).
func FixDistributed2(inst *model.Instance, opts Options, lopts local.Options) (*DistResult, error) {
	opts = opts.withDefaults()
	if r := inst.Rank(); r > 2 {
		return nil, fmt.Errorf("core: FixDistributed2 requires rank <= 2, instance has %d", r)
	}
	if err := checkPhiEvents(inst.NumEvents()); err != nil {
		return nil, err
	}
	g := inst.DependencyGraph()
	ec, err := coloring.DistributedEdgeColoringNative(g, lopts)
	if err != nil {
		return nil, fmt.Errorf("core: edge colouring: %w", err)
	}
	machines := make([]*lllMachine, g.N())
	fo := newFixObs(opts.Metrics)
	orc := newOracle(inst) // compiled once, shared read-only by every machine
	stats, err := local.Run(g, func(v int) local.Machine {
		edgeClass := make(map[int]int, g.Degree(v))
		g.ForEachNeighbor(v, func(u, edgeID int) {
			edgeClass[u] = ec.Colors[edgeID]
		})
		machines[v] = &lllMachine{
			inst:       inst,
			orc:        orc,
			me:         v,
			opts:       opts,
			mode:       modeEdgeClasses,
			numClasses: ec.Palette,
			edgeClass:  edgeClass,
			obs:        fo,
		}
		return machines[v]
	}, lopts)
	if err != nil {
		return partialDistResult(ec.Rounds*ec.SimFactor, stats, ec.Palette), err
	}
	return collectDistResult(inst, orc, machines, ec.Rounds*ec.SimFactor, stats, ec.Palette)
}

// FixDistributed3 is Corollary 1.4: a deterministic distributed algorithm
// for LLL instances whose variables affect at most three events, running on
// the dependency graph in O(poly d + log* n) rounds (distance-2 colouring +
// one two-round cycle per colour class).
func FixDistributed3(inst *model.Instance, opts Options, lopts local.Options) (*DistResult, error) {
	opts = opts.withDefaults()
	if r := inst.Rank(); r > 3 {
		return nil, fmt.Errorf("%w: rank %d", ErrRankTooHigh, r)
	}
	if err := checkPhiEvents(inst.NumEvents()); err != nil {
		return nil, err
	}
	g := inst.DependencyGraph()
	d2, err := coloring.DistributedDistance2Native(g, lopts)
	if err != nil {
		return nil, fmt.Errorf("core: distance-2 colouring: %w", err)
	}
	machines := make([]*lllMachine, g.N())
	fo := newFixObs(opts.Metrics)
	orc := newOracle(inst) // compiled once, shared read-only by every machine
	stats, err := local.Run(g, func(v int) local.Machine {
		machines[v] = &lllMachine{
			inst:       inst,
			orc:        orc,
			me:         v,
			opts:       opts,
			mode:       modeNodeClasses,
			numClasses: d2.Palette,
			myClass:    d2.Colors[v],
			obs:        fo,
		}
		return machines[v]
	}, lopts)
	if err != nil {
		return partialDistResult(d2.Rounds*d2.SimFactor, stats, d2.Palette), err
	}
	return collectDistResult(inst, orc, machines, d2.Rounds*d2.SimFactor, stats, d2.Palette)
}

// partialDistResult packages the round/message accounting of a failed
// fixing phase: the LOCAL runtime's Stats are well defined up to the
// failing round, and localsim prints them alongside the error.
func partialDistResult(coloringRounds int, stats local.Stats, classes int) *DistResult {
	return &DistResult{
		ColoringRounds: coloringRounds,
		FixingRounds:   stats.Rounds,
		TotalRounds:    coloringRounds + stats.Rounds,
		Classes:        classes,
		Messages:       stats.MessagesSent,
		LocalStats:     stats,
	}
}

// collectDistResult merges the machines' local views of their own scopes
// into one global assignment, fixes event-free variables, and evaluates the
// outcome with the run's oracle.
func collectDistResult(inst *model.Instance, orc oracle, machines []*lllMachine, coloringRounds int, stats local.Stats, classes int) (*DistResult, error) {
	a := model.NewAssignment(inst)
	for v, m := range machines {
		if m.err != nil {
			return nil, fmt.Errorf("core: node %d failed: %w", v, m.err)
		}
		for _, vid := range m.vars {
			if !m.view.Fixed(vid) {
				continue
			}
			val := m.view.Value(vid)
			if a.Fixed(vid) {
				if a.Value(vid) != val {
					return nil, fmt.Errorf("core: nodes disagree on variable %d", vid)
				}
				continue
			}
			a.Fix(vid, val)
		}
	}
	for vid := 0; vid < inst.NumVars(); vid++ {
		if !a.Fixed(vid) {
			if len(inst.Var(vid).Events) != 0 {
				return nil, fmt.Errorf("core: variable %d left unfixed by the distributed run", vid)
			}
			a.Fix(vid, 0) // affects nothing
		}
	}
	violated, err := orc.CountViolated(a)
	if err != nil {
		return nil, err
	}
	return &DistResult{
		Assignment:     a,
		ColoringRounds: coloringRounds,
		FixingRounds:   stats.Rounds,
		TotalRounds:    coloringRounds + stats.Rounds,
		Classes:        classes,
		Messages:       stats.MessagesSent,
		ViolatedEvents: violated,
		LocalStats:     stats,
	}, nil
}
