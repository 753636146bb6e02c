// Package batch packs many small LLL instances into one engine run and
// fingerprints instances up to isomorphism. No served request runs any of
// it: the service runs every batch instance through its solo path, and its
// result cache keys on a fold of the job spec. The package is kept only for
// the per-layer metrics of the end-to-end benchmark (perfbench's
// batch.packed_ms, batch.solo_ms and cache.key_ms), and goes once those
// metrics are retired.
//
// Pack concatenates the event spaces of disjoint instances into one global
// index range. RunParallelMT covers the union with a single sharded scan per
// round (engine.ForEachSegments), while each instance keeps its own
// assignment, its own RNG stream and its own round budget; RunFixSequential
// runs the deterministic fixer across instances on the pool. Per-instance
// results are bit-for-bit identical to solo runs with the same seed — the
// packed scan is read-only and index-addressed, and every random draw
// happens on the instance's private generator in the solo order — which the
// equivalence tests and the golden table in this package lock in.
//
// Hash computes a canonical, isomorphism-stable fingerprint of an instance
// (Weisfeiler-Leman color refinement over the dependency graph, seeded with
// per-event structural invariants).
package batch

import (
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/prng"
)

// wlRounds is the number of Weisfeiler-Leman refinement rounds. The
// generator families in internal/graph are distinguished within a few
// rounds; more rounds only cost time on large instances.
const wlRounds = 3

// mix folds x into the running hash h. It is the only combinator used by
// the canonical hash, so the fingerprint is stable across processes and
// architectures (pure integer arithmetic, no map iteration).
func mix(h, x uint64) uint64 {
	return prng.Mix64(h*0x9E3779B97F4A7C15 + x + 0xD1B54A32D192ED03)
}

// mixSorted folds a multiset of values into h order-insensitively by
// sorting first. values is mutated (sorted in place).
func mixSorted(h uint64, values []uint64) uint64 {
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for _, v := range values {
		h = mix(h, v)
	}
	return h
}

// varSignature fingerprints one variable: its distribution (exact float64
// bits of every probability) and its rank (how many events it affects).
// Variable identity and name are deliberately excluded — the hash must be
// stable under relabeling.
func varSignature(v *model.Variable) uint64 {
	h := mix(0x7661_7269_6162_6c65, uint64(v.Dist.Size()))
	for i := 0; i < v.Dist.Size(); i++ {
		h = mix(h, math.Float64bits(v.Dist.Prob(i)))
	}
	return mix(h, uint64(len(v.Events)))
}

// eventSignature fingerprints one event: scope size, dependency degree, the
// multiset of (scope variable signature, per-position event structure)
// pairs, and — for events without a serializable spec — the exact
// unconditional probability as a semantic stand-in for the opaque
// predicate. The multiset view makes the signature invariant under
// permutations of the scope, which relabeled generator builds produce.
func eventSignature(inst *model.Instance, id int, varSig []uint64, empty *model.Assignment) uint64 {
	e := inst.Event(id)
	h := mix(0x6576_656e_74, uint64(len(e.Scope)))
	h = mix(h, uint64(inst.DependencyGraph().Degree(id)))

	pos := make([]uint64, len(e.Scope))
	switch s := e.Spec.(type) {
	case model.ConjunctionSpec:
		h = mix(h, 0xc01) // kind tag: conjunction
		for i, vid := range e.Scope {
			ph := mix(0x706f_73, varSig[vid])
			set := append([]int(nil), s.BadSets[i]...)
			sort.Ints(set)
			ph = mix(ph, uint64(len(set)))
			for _, val := range set {
				ph = mix(ph, uint64(val))
			}
			pos[i] = ph
		}
	case model.AllEqualSpec:
		h = mix(h, 0xa11e_4a1) // kind tag: all-equal
		for i, vid := range e.Scope {
			pos[i] = mix(0x706f_73, varSig[vid])
		}
	default:
		// Opaque predicate: fall back to the scope structure plus the
		// exact unconditional probability of the event.
		h = mix(h, 0x0b_aca) // kind tag: opaque
		h = mix(h, math.Float64bits(inst.CondProb(id, empty)))
		for i, vid := range e.Scope {
			pos[i] = mix(0x706f_73, varSig[vid])
		}
	}
	return mixSorted(h, pos)
}

// Hash returns the canonical fingerprint of inst.
//
// The fingerprint is invariant under instance isomorphism — any relabeling
// of variables and events that preserves the scopes, the distributions and
// the event structure hashes identically, including permuted scope order
// and permuted construction order of the generator-built families
// (internal/graph cycles, random regular graphs, the hypergraph families).
// It is computed by Weisfeiler-Leman color refinement on the dependency
// graph: initial colors are per-event structural invariants
// (eventSignature), each round re-colors every event with its own color
// plus the sorted multiset of its neighbors' colors, and the final hash
// combines the sorted multiset of stable colors with the sorted multiset of
// variable signatures.
//
// Like every WL-style invariant it is complete only up to WL
// distinguishability, and 64 bits can collide; a caller that needs
// exactness must also fold the generation seed and parameters into its key,
// so a collision requires two DIFFERENT instances built from the SAME spec
// — which cannot happen, the builders are deterministic.
func Hash(inst *model.Instance) uint64 {
	n, m := inst.NumVars(), inst.NumEvents()
	empty := model.NewAssignment(inst)

	varSig := make([]uint64, n)
	for v := 0; v < n; v++ {
		varSig[v] = varSignature(inst.Var(v))
	}

	colors := make([]uint64, m)
	for id := 0; id < m; id++ {
		colors[id] = eventSignature(inst, id, varSig, empty)
	}

	g := inst.DependencyGraph()
	next := make([]uint64, m)
	var scratch []uint64
	for round := 0; round < wlRounds; round++ {
		for id := 0; id < m; id++ {
			nb := g.Neighbors(id)
			scratch = scratch[:0]
			for _, u := range nb {
				scratch = append(scratch, colors[u])
			}
			next[id] = mixSorted(mix(0x776c, colors[id]), scratch)
		}
		colors, next = next, colors
	}

	h := mix(0x6c6c_6c, uint64(n))
	h = mix(h, uint64(m))
	h = mixSorted(h, colors)
	vs := append([]uint64(nil), varSig...)
	return mixSorted(h, vs)
}
