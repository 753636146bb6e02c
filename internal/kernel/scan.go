package kernel

import (
	"fmt"
	"math/bits"

	"repro/internal/engine"
	"repro/internal/model"
)

// Scratch holds the reusable buffers of a violated-event scan: the
// violated bitset (one bit per event) and the collected identifier list.
// A Scratch belongs to one run at a time; scans on the same Scratch reuse
// and overwrite its buffers.
type Scratch struct {
	bits []uint64
	out  []int
}

// NewScratch returns scan scratch sized for c.
func (c *Compiled) NewScratch() *Scratch {
	return &Scratch{bits: make([]uint64, c.EventWords()), out: make([]int, 0, 64)}
}

// Bits exposes the violated bitset of the most recent scan (bit e&63 of
// word e>>6 is set iff event e was violated). It stays valid until the next
// scan on the same Scratch.
func (s *Scratch) Bits() []uint64 { return s.bits }

// eval evaluates event e under the complete packed assignment a. vals is
// scratch of at least MaxScope ints for generic events (may be nil when the
// instance has none).
func (c *Compiled) eval(e int, a *Assignment, vals []int) bool {
	lo, hi := c.scopeOff[e], c.scopeOff[e+1]
	switch c.kind[e] {
	case kindConj:
		for j := lo; j < hi; j++ {
			if c.conjMask[j]>>uint(a.value(int(c.scopeVar[j])))&1 == 0 {
				return false
			}
		}
		return true
	case kindAllEqual:
		first := a.value(int(c.scopeVar[lo]))
		for j := lo + 1; j < hi; j++ {
			if a.value(int(c.scopeVar[j])) != first {
				return false
			}
		}
		return true
	default:
		vals = vals[:hi-lo]
		for j := lo; j < hi; j++ {
			vals[j-lo] = a.value(int(c.scopeVar[j]))
		}
		return c.inst.Event(e).Occurs(vals)
	}
}

// ScanWords evaluates the events of words [wlo, whi) — event e maps to bit
// e&63 of word e>>6 — under the complete packed assignment a, and stores
// the violated bitmask into bitsOut[wlo:whi]. Every word is written exactly
// once and nothing else is touched, so disjoint word ranges can be scanned
// concurrently without synchronization. vals must be scratch of at least
// MaxScope ints when HasGeneric reports true; it may be nil otherwise.
func (c *Compiled) ScanWords(a *Assignment, wlo, whi int, bitsOut []uint64, vals []int) {
	for wi := wlo; wi < whi; wi++ {
		e0 := wi << 6
		e1 := e0 + 64
		if e1 > c.numEvents {
			e1 = c.numEvents
		}
		var w uint64
		for e := e0; e < e1; e++ {
			if c.eval(e, a, vals) {
				w |= 1 << uint(e-e0)
			}
		}
		bitsOut[wi] = w
	}
}

// Violated returns the identifiers of all events violated under the
// complete packed assignment a, in ascending order. The scan is sharded
// word-aligned over pool — each worker owns whole bitset words — and the
// result is bit-identical for every worker count. The returned slice
// aliases s and stays valid until the next scan on the same Scratch.
func (c *Compiled) Violated(a *Assignment, pool *engine.Pool, s *Scratch) ([]int, error) {
	if !a.Complete() {
		return nil, fmt.Errorf("%w: %d of %d variables fixed", model.ErrNotFixed, a.NumFixed(), c.numVars)
	}
	hasGeneric := c.hasGeneric
	pool.ForEachShard(len(s.bits), func(wlo, whi int) {
		var vals []int
		if hasGeneric {
			vals = make([]int, c.maxScope)
		}
		c.ScanWords(a, wlo, whi, s.bits, vals)
	})
	s.out = s.out[:0]
	for wi, w := range s.bits {
		base := wi << 6
		for w != 0 {
			s.out = append(s.out, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return s.out, nil
}

// HasLowerViolatedNeighbor reports whether event e has a dependency-graph
// neighbor u < e whose bit is set in the violated bitset. It is the
// priority test of the parallel Moser-Tardos round (an event resamples iff
// it is the local minimum among violated neighbors).
func (c *Compiled) HasLowerViolatedNeighbor(violated []uint64, e int) bool {
	for j := c.adjOff[e]; j < c.adjOff[e+1]; j++ {
		u := int(c.adj[j])
		if u >= e {
			break // adjacency rows are ascending
		}
		if violated[uint(u)>>6]>>(uint(u)&63)&1 == 1 {
			return true
		}
	}
	return false
}

// evalModel evaluates event e directly against a model.Assignment (which
// must be complete); vals is scratch of at least MaxScope ints.
func (c *Compiled) evalModel(e int, ma *model.Assignment, vals []int) bool {
	lo, hi := c.scopeOff[e], c.scopeOff[e+1]
	switch c.kind[e] {
	case kindConj:
		for j := lo; j < hi; j++ {
			if c.conjMask[j]>>uint(ma.Value(int(c.scopeVar[j])))&1 == 0 {
				return false
			}
		}
		return true
	case kindAllEqual:
		first := ma.Value(int(c.scopeVar[lo]))
		for j := lo + 1; j < hi; j++ {
			if ma.Value(int(c.scopeVar[j])) != first {
				return false
			}
		}
		return true
	default:
		vals = vals[:hi-lo]
		for j := lo; j < hi; j++ {
			vals[j-lo] = ma.Value(int(c.scopeVar[j]))
		}
		return c.inst.Event(e).Occurs(vals)
	}
}

// CountViolatedModel counts the events violated under the fully fixed model
// assignment ma, allocation-free apart from one scope scratch. It matches
// model.Instance.CountViolated exactly, including the error on a partial
// assignment (delegated to the generic path so the error text is shared).
func (c *Compiled) CountViolatedModel(ma *model.Assignment) (int, error) {
	if !ma.Complete() {
		return c.inst.CountViolated(ma)
	}
	vals := make([]int, c.maxScope)
	count := 0
	for e := 0; e < c.numEvents; e++ {
		if c.evalModel(e, ma, vals) {
			count++
		}
	}
	return count, nil
}
