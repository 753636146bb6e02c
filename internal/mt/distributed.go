package mt

import (
	"fmt"
	"sort"

	"repro/internal/local"
	"repro/internal/model"
	"repro/internal/prng"
)

// This file implements the parallel Moser-Tardos resampler as an actual
// message-passing algorithm on the LOCAL runtime — the "straightforward
// distributed implementation" the paper's related-work section attributes
// O(log² n) rounds to. One resampling iteration takes three LOCAL rounds:
//
//	round A: every variable's owner (its lowest affected event) broadcasts
//	         the variable's current value;
//	round B: every node evaluates its own event and broadcasts whether it
//	         is violated;
//	round C: violated nodes that are local minima (by ID) among violated
//	         neighbours resample ALL their scope variables and broadcast
//	         the new values, which the owners adopt.
//
// Local minima among violated events are pairwise non-adjacent, so the
// resampled scopes are disjoint and the parallel step is well defined.
//
// The machines execute on the LOCAL runtime's sharded worker-pool engine
// (internal/engine); lopts.Workers selects the worker count and the result
// is bit-for-bit identical for every value, because each machine's state,
// outbox and RNG stream are owned by its node index.

// mtValueMsg carries variable values (A/C rounds).
type mtValueMsg map[int]int

// mtFlagMsg carries the sender's violated flag together with its ID
// (B round).
type mtFlagMsg struct {
	id       uint64
	violated bool
}

// mtMachine is the per-event machine of the distributed resampler.
type mtMachine struct {
	inst      *model.Instance
	me        int
	seed      uint64
	maxIters  int
	rng       *prng.Rand
	info      local.NodeInfo
	vals      map[int]int // current values of all scope variables of my event and my owned variables
	owned     []int       // variables whose lowest affected event is me
	scope     []int
	violated  bool
	iterDone  bool // my event was satisfied at the last check
	resamples int
	err       error
}

func (m *mtMachine) Init(info local.NodeInfo) {
	m.info = info
	m.rng = prng.New(m.seed ^ info.ID ^ 0x9e3779b97f4a7c15)
	m.vals = make(map[int]int)
	m.scope = append([]int(nil), m.inst.Event(m.me).Scope...)
	for vid := 0; vid < m.inst.NumVars(); vid++ {
		events := m.inst.Var(vid).Events
		if len(events) == 0 {
			continue
		}
		lowest := events[0]
		for _, e := range events[1:] {
			if e < lowest {
				lowest = e
			}
		}
		if lowest == m.me {
			m.owned = append(m.owned, vid)
		}
	}
	sort.Ints(m.owned)
	// Initial sampling of owned variables.
	for _, vid := range m.owned {
		m.vals[vid] = m.inst.Var(vid).Dist.Sample(m.rng)
	}
}

func (m *mtMachine) totalRounds() int { return 3 * m.maxIters }

// broadcastVals sends the given variable values to every port.
func (m *mtMachine) broadcastVals(vids []int) []local.Message {
	msg := make(mtValueMsg, len(vids))
	for _, vid := range vids {
		msg[vid] = m.vals[vid]
	}
	send := make([]local.Message, m.info.Degree())
	for i := range send {
		send[i] = msg
	}
	return send
}

func (m *mtMachine) mergeVals(recv []local.Message) error {
	for _, raw := range recv {
		if raw == nil {
			continue
		}
		msg, ok := raw.(mtValueMsg)
		if !ok {
			return fmt.Errorf("mt: unexpected message type %T", raw)
		}
		for vid, val := range msg {
			m.vals[vid] = val
		}
	}
	return nil
}

func (m *mtMachine) Round(round int, recv []local.Message) ([]local.Message, bool) {
	if m.err != nil {
		return nil, true
	}
	phase := (round - 1) % 3
	switch phase {
	case 0:
		// Round A: broadcast owned values. (Also fold in values broadcast
		// by resamplers in the previous C round.)
		if err := m.mergeVals(recv); err != nil {
			m.err = err
			return nil, true
		}
		return m.broadcastVals(m.owned), false
	case 1:
		// Round B: fold in neighbour values, evaluate my event, broadcast
		// the flag.
		if err := m.mergeVals(recv); err != nil {
			m.err = err
			return nil, true
		}
		vals := make([]int, len(m.scope))
		for i, vid := range m.scope {
			v, ok := m.vals[vid]
			if !ok {
				m.err = fmt.Errorf("mt: node %d missing value of variable %d", m.me, vid)
				return nil, true
			}
			vals[i] = v
		}
		m.violated = m.inst.Event(m.me).Occurs(vals)
		send := make([]local.Message, m.info.Degree())
		for i := range send {
			send[i] = mtFlagMsg{id: m.info.ID, violated: m.violated}
		}
		return send, false
	default:
		// Round C: local minima among violated events resample their
		// whole scope and broadcast the new values.
		resample := m.violated
		if resample {
			for _, raw := range recv {
				flag, ok := raw.(mtFlagMsg)
				if !ok {
					m.err = fmt.Errorf("mt: unexpected message type %T", raw)
					return nil, true
				}
				if flag.violated && flag.id < m.info.ID {
					resample = false
					break
				}
			}
		}
		done := round >= m.totalRounds()
		if !resample {
			return nil, done
		}
		m.resamples++
		for _, vid := range m.scope {
			m.vals[vid] = m.inst.Var(vid).Dist.Sample(m.rng)
		}
		return m.broadcastVals(m.scope), done
	}
}

// DistResult is the outcome of a distributed Moser-Tardos run.
type DistResult struct {
	Assignment *model.Assignment
	Satisfied  bool
	// Rounds is the LOCAL-round count (3 per resampling iteration).
	Rounds int
	// Iterations is the number of resampling iterations executed.
	Iterations int
	// Resamplings counts event resamplings across all nodes.
	Resamplings int
	Messages    int
	// LocalStats is the underlying LOCAL runtime's execution record. On a
	// failed run it holds the partial stats up to the failure.
	LocalStats local.Stats
}

// Distributed runs the parallel Moser-Tardos resampler as a LOCAL algorithm
// on the instance's dependency graph for exactly maxIters iterations
// (0 means 200) and reports whether the final assignment avoids all events.
// Under ep(d+1) < 1 a logarithmic number of iterations suffices with high
// probability; callers inspect Satisfied.
//
// Note the fixed iteration budget: LOCAL nodes cannot detect global
// success without Θ(diameter) rounds, so the classic implementation runs
// for a precomputed bound. This is exactly why the paper's deterministic
// O(poly d + log* n) result is interesting.
//
// Cancellation: when lopts.Ctx is set and becomes done, the underlying
// LOCAL run stops between rounds and Distributed returns the partial
// DistResult (round/message accounting and LocalStats up to the last
// completed round, no Assignment) together with an error wrapping
// ctx.Err().
func Distributed(inst *model.Instance, seed uint64, maxIters int, lopts local.Options) (*DistResult, error) {
	if maxIters == 0 {
		maxIters = 200
	}
	g := inst.DependencyGraph()
	machines := make([]*mtMachine, g.N())
	stats, err := local.Run(g, func(v int) local.Machine {
		machines[v] = &mtMachine{inst: inst, me: v, seed: seed, maxIters: maxIters}
		return machines[v]
	}, lopts)
	if err != nil {
		// Partial result: the runtime's Stats are well defined up to the
		// failing round, so surface them (localsim prints them on failure).
		return &DistResult{Rounds: stats.Rounds, Messages: stats.MessagesSent, LocalStats: stats}, err
	}
	a := model.NewAssignment(inst)
	resamples := 0
	for v, m := range machines {
		if m.err != nil {
			return nil, fmt.Errorf("mt: node %d failed: %w", v, m.err)
		}
		resamples += m.resamples
		for _, vid := range m.owned {
			a.Fix(vid, m.vals[vid])
		}
	}
	for vid := 0; vid < inst.NumVars(); vid++ {
		if !a.Fixed(vid) {
			if len(inst.Var(vid).Events) != 0 {
				return nil, fmt.Errorf("mt: variable %d has no owner", vid)
			}
			a.Fix(vid, inst.Var(vid).Dist.Sample(prng.New(seed)))
		}
	}
	violated, err := violatedEvents(inst, a, nil)
	if err != nil {
		return nil, err
	}
	return &DistResult{
		Assignment:  a,
		Satisfied:   len(violated) == 0,
		Rounds:      stats.Rounds,
		Iterations:  maxIters,
		Resamplings: resamples,
		Messages:    stats.MessagesSent,
		LocalStats:  stats,
	}, nil
}
