// Package kernel provides flat, cache-friendly evaluation kernels compiled
// once per model.Instance. The generic representation (pointer-rich
// graph.Graph adjacency, per-event closures, per-call []int scratch) is what
// the rest of the repository programs against; this package compiles it into
// compressed-sparse-row (CSR) arrays, bit-packed assignment words and
// precomputed conditional-probability tables so that the hot loops of the
// resamplers and fixers — violated-event scans, Inc(·,·) queries, final
// CountViolated sweeps — run over contiguous memory without allocating.
//
// The contract is strict equivalence: every kernel result is bit-identical
// to the generic path, including the exact float operation order of the
// closed-form conditional probabilities (Conjunction, AllEqual), so golden
// tables, differential tests and checkpoints are interchangeable between
// the two paths. Events without a recognized closed form fall back to the
// instance's own predicate/probability functions, which keeps the kernel a
// pure accelerator: it never changes semantics, only layout.
//
// Compilation is per run (For): a kernel is owned by the run that compiled
// it and dies with it. Kernels can be disabled process-wide (SetEnabled) to
// force every caller back onto the generic path, which is how the
// differential tests use the old code as an oracle.
package kernel

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/model"
)

// Event kinds. Closed-form kinds are evaluated from the compiled tables;
// kindGeneric events gather their scope values and call the instance's own
// predicate (and probability) functions.
const (
	kindGeneric  uint8 = iota
	kindConj           // conjunction: bad iff every scope value is in its bad set
	kindAllEqual       // all-equal: bad iff all scope values coincide
)

// maxConjValues bounds the value-space size of a conjunction scope slot that
// can be compiled into a single uint64 bad-set mask; larger slots fall back
// to the generic evaluator.
const maxConjValues = 64

// Compiled is the flat kernel for one immutable model.Instance. All fields
// are read-only after Compile, so a Compiled may be shared freely across
// goroutines; mutable per-run state lives in Assignment and Scratch.
type Compiled struct {
	inst *model.Instance

	numVars   int
	numEvents int

	// Event scopes, CSR: event e owns slots scopeOff[e]..scopeOff[e+1].
	scopeOff []int32
	scopeVar []int32

	// Variable -> events, CSR: variable v affects varEvents[varOff[v]:varOff[v+1]].
	varOff    []int32
	varEvents []int32

	// Dependency-graph adjacency, CSR; each row ascending (mirrors
	// graph.Graph.Neighbors order).
	adjOff []int32
	adj    []int32

	// Deduplicated distribution tables: variable v draws from distribution
	// varDist[v], whose probabilities (and cumulative sums) occupy
	// probs[distOff[d]:distOff[d+1]]. probs/cum are verbatim copies of the
	// dist.Distribution vectors, so every probability read and sample is
	// bitwise identical to the generic path.
	varDist []int32
	distOff []int32
	probs   []float64
	cum     []float64

	// Per-event kind plus the closed-form tables, parallel to scopeVar:
	// for kindConj slots, conjMask holds the bad-set bitmask and conjSetP
	// the precomputed Pr[X in S] (summed in the same order as
	// model.NewConjunction, for bitwise-equal products).
	kind     []uint8
	conjMask []uint64
	conjSetP []float64
	// evAux[e] is the all-equal maxK (largest scope value-space) for
	// kindAllEqual events and unused otherwise.
	evAux []int32

	maxScope   int
	hasGeneric bool

	// Bit-packed assignment geometry: every variable value occupies valBits
	// bits (a power of two, so values never straddle a 64-bit word).
	valBits  uint   // bits per value: 1, 2, 4, 8, 16 or 32
	valShift uint   // log2(valBits)
	valMask  uint64 // (1<<valBits)-1
	vpwShift uint   // log2(64/valBits): variable id -> word index shift
	vpwMask  uint   // 64/valBits - 1:   variable id -> slot-in-word mask
	valWords int    // value words per assignment
}

// Instance returns the instance the kernel was compiled from.
func (c *Compiled) Instance() *model.Instance { return c.inst }

// NumVars returns the number of variables.
func (c *Compiled) NumVars() int { return c.numVars }

// NumEvents returns the number of events.
func (c *Compiled) NumEvents() int { return c.numEvents }

// MaxScope returns the largest event scope size.
func (c *Compiled) MaxScope() int { return c.maxScope }

// HasGeneric reports whether any event lacks a compiled closed form and is
// evaluated through the instance's own predicate.
func (c *Compiled) HasGeneric() bool { return c.hasGeneric }

// EventWords returns the number of 64-bit words of a violated-event bitset
// (one bit per event).
func (c *Compiled) EventWords() int { return (c.numEvents + 63) / 64 }

// Scope returns a copy of event e's scope, in declaration order.
func (c *Compiled) Scope(e int) []int {
	return c.csrRow(c.scopeOff, c.scopeVar, e)
}

// Neighbors returns a copy of event e's dependency-graph neighbors in
// ascending order, exactly as graph.Graph.Neighbors enumerates them.
func (c *Compiled) Neighbors(e int) []int {
	return c.csrRow(c.adjOff, c.adj, e)
}

// VarEvents returns a copy of the identifiers of the events variable v
// affects, in event order (the variable's rank list).
func (c *Compiled) VarEvents(v int) []int {
	return c.csrRow(c.varOff, c.varEvents, v)
}

func (c *Compiled) csrRow(off, data []int32, i int) []int {
	lo, hi := off[i], off[i+1]
	out := make([]int, hi-lo)
	for j := lo; j < hi; j++ {
		out[j-lo] = int(data[j])
	}
	return out
}

// distFor returns the flat-table offset and size of variable v's
// distribution.
func (c *Compiled) distFor(v int32) (off, size int32) {
	d := c.varDist[v]
	off = c.distOff[d]
	return off, c.distOff[d+1] - off
}

// Compile builds the flat kernel for inst. It fails only on instances the
// packed representation cannot hold (a variable value-space beyond 2^32
// values, or total scope size beyond the int32 CSR index range); callers
// normally go through For, which falls back to the generic path on error.
func Compile(inst *model.Instance) (*Compiled, error) {
	n, m := inst.NumVars(), inst.NumEvents()
	c := &Compiled{inst: inst, numVars: n, numEvents: m}

	// Distribution tables, deduplicated by pointer: variables built from a
	// shared dist.Distribution share one flat table.
	distIdx := make(map[*dist.Distribution]int32)
	c.varDist = make([]int32, n)
	c.distOff = []int32{0}
	maxValues := 1
	for v := 0; v < n; v++ {
		d := inst.Var(v).Dist
		id, ok := distIdx[d]
		if !ok {
			size := d.Size()
			if size > 1<<31-1 {
				return nil, fmt.Errorf("kernel: variable %d has %d values, beyond the packed range", v, size)
			}
			id = int32(len(c.distOff) - 1)
			distIdx[d] = id
			for i := 0; i < size; i++ {
				c.probs = append(c.probs, d.Prob(i))
			}
			c.cum = append(c.cum, cumulative(d)...)
			c.distOff = append(c.distOff, int32(len(c.probs)))
		}
		c.varDist[v] = id
		if size := inst.Var(v).Dist.Size(); size > maxValues {
			maxValues = size
		}
	}

	// Bit width: smallest power of two holding every value index.
	need := bits.Len(uint(maxValues - 1))
	if need == 0 {
		need = 1
	}
	if need > 32 {
		return nil, fmt.Errorf("kernel: value space needs %d bits, beyond the 32-bit packed limit", need)
	}
	c.valBits = 1
	for c.valBits < uint(need) {
		c.valBits <<= 1
	}
	c.valShift = uint(bits.TrailingZeros(c.valBits))
	c.valMask = 1<<c.valBits - 1
	c.vpwShift = 6 - c.valShift
	c.vpwMask = 1<<c.vpwShift - 1
	c.valWords = (n + (1 << c.vpwShift) - 1) >> c.vpwShift

	// Event scopes (CSR) and kinds.
	total := 0
	for e := 0; e < m; e++ {
		total += len(inst.Event(e).Scope)
	}
	if total > 1<<31-1 {
		return nil, fmt.Errorf("kernel: total scope size %d beyond the int32 CSR range", total)
	}
	c.scopeOff = make([]int32, m+1)
	c.scopeVar = make([]int32, 0, total)
	c.kind = make([]uint8, m)
	c.conjMask = make([]uint64, total)
	c.conjSetP = make([]float64, total)
	c.evAux = make([]int32, m)
	for e := 0; e < m; e++ {
		ev := inst.Event(e)
		base := len(c.scopeVar)
		for _, vid := range ev.Scope {
			c.scopeVar = append(c.scopeVar, int32(vid))
		}
		c.scopeOff[e+1] = int32(len(c.scopeVar))
		if len(ev.Scope) > c.maxScope {
			c.maxScope = len(ev.Scope)
		}
		c.kind[e] = c.classify(ev, base)
		if c.kind[e] == kindGeneric {
			c.hasGeneric = true
		}
	}

	// Variable -> events CSR, in event order (mirrors Variable.Events).
	c.varOff = make([]int32, n+1)
	for v := 0; v < n; v++ {
		c.varOff[v+1] = c.varOff[v] + int32(len(inst.Var(v).Events))
	}
	c.varEvents = make([]int32, c.varOff[n])
	for v := 0; v < n; v++ {
		row := c.varEvents[c.varOff[v]:c.varOff[v+1]]
		for i, e := range inst.Var(v).Events {
			row[i] = int32(e)
		}
	}

	// Dependency-graph adjacency CSR, ascending per row.
	g := inst.DependencyGraph()
	c.adjOff = make([]int32, m+1)
	for e := 0; e < m; e++ {
		c.adjOff[e+1] = c.adjOff[e] + int32(g.Degree(e))
	}
	c.adj = make([]int32, c.adjOff[m])
	for e := 0; e < m; e++ {
		row := c.adj[c.adjOff[e]:c.adjOff[e+1]]
		i := 0
		g.ForEachNeighbor(e, func(u, _ int) {
			row[i] = int32(u)
			i++
		})
	}
	return c, nil
}

// classify determines the kind of ev and, for conjunctions, fills the
// per-slot mask/probability tables starting at scope slot base.
func (c *Compiled) classify(ev *model.Event, base int) uint8 {
	switch spec := ev.Spec.(type) {
	case model.ConjunctionSpec:
		if len(spec.BadSets) != len(ev.Scope) {
			return kindGeneric
		}
		for i, vid := range ev.Scope {
			off, size := c.distFor(int32(vid))
			if size > maxConjValues {
				return kindGeneric
			}
			var mask uint64
			// Sum the set probability in the declared order with the same
			// duplicate skipping as model.NewConjunction, so the
			// precomputed Pr[X in S] is bitwise identical to setProb.
			p := 0.0
			for _, v := range spec.BadSets[i] {
				if v < 0 || v >= int(size) {
					return kindGeneric
				}
				if mask>>uint(v)&1 == 0 {
					mask |= 1 << uint(v)
					p += c.probs[off+int32(v)]
				}
			}
			c.conjMask[base+i] = mask
			c.conjSetP[base+i] = p
		}
		return kindConj
	case model.AllEqualSpec:
		maxK := int32(0)
		for _, vid := range ev.Scope {
			if _, size := c.distFor(int32(vid)); size > maxK {
				maxK = size
			}
		}
		c.evAux[ev.ID] = maxK
		return kindAllEqual
	default:
		return kindGeneric
	}
}

// cumulative returns the cumulative-sum vector of d exactly as
// dist.Distribution stores it (top entry clamped to 1).
func cumulative(d *dist.Distribution) []float64 {
	out := make([]float64, d.Size())
	acc := 0.0
	for i := 0; i < d.Size(); i++ {
		acc += d.Prob(i)
		out[i] = acc
	}
	out[d.Size()-1] = 1
	return out
}

// enabled gates For process-wide; kernels default to on.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enabled reports whether kernels are enabled process-wide.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns the kernel path on or off process-wide and returns the
// previous setting. With kernels disabled, For returns nil and every caller
// runs the generic path — the differential tests use this to pit the two
// paths against each other. Intended for tests and diagnostics; flip it only
// between runs, not while one is in flight.
func SetEnabled(v bool) bool { return enabled.Swap(v) }

// For compiles the kernel for inst. It returns nil when kernels are
// disabled process-wide or the instance cannot be compiled; callers must
// treat nil as "use the generic path". For keeps nothing: a kernel lives as
// long as the run that asked for it, so each run calls For once and shares
// the result read-only across its goroutines.
func For(inst *model.Instance) *Compiled {
	if inst == nil || !Enabled() {
		return nil
	}
	c, err := Compile(inst)
	if err != nil {
		return nil
	}
	return c
}
