package batch

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/prng"
)

// defaultMaxRounds is the per-instance round budget, mirroring mt.Parallel.
const defaultMaxRounds = 100_000

// Options parameterizes the packed runners. The zero value runs on the
// shared engine pool with the library-default budgets.
type Options struct {
	// Ctx cancels the run; checked once per packed round. Nil means
	// context.Background(). On cancellation the runners return the partial
	// per-instance results together with an error wrapping ctx.Err().
	Ctx context.Context
	// Pool executes the packed scans; nil selects engine.Shared(). Results
	// are bit-identical for every worker count (the scans are read-only
	// and index-addressed).
	Pool *engine.Pool
	// MaxRounds caps each instance's parallel resampling rounds
	// (RunParallelMT); 0 means 100000, matching mt.Parallel.
	MaxRounds int
	// Core configures the deterministic fixer for RunFixSequential.
	// Checkpoint and Trace fields must be left unset (instances run
	// concurrently and would interleave on them).
	Core core.Options
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) pool() *engine.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return engine.Shared()
}

// Result is the unpacked outcome of one instance of a packed run. It is
// bit-identical (assignment included) to the solo run of the same algorithm,
// with the same seed for RunParallelMT.
type Result struct {
	// Satisfied reports whether the final assignment avoids all bad events.
	Satisfied bool
	// ViolatedEvents is the number of violated events under the final
	// assignment (the count the terminating scan observed).
	ViolatedEvents int
	// Rounds counts the instance's own parallel rounds (RunParallelMT).
	Rounds int
	// Resamplings counts the instance's event resamplings.
	Resamplings int
	// VarsFixed counts fixed variables (RunFixSequential).
	VarsFixed int
	// Assignment is the final assignment (nil for RunFixSequential
	// failures before any assignment existed).
	Assignment *model.Assignment
	// Err is the instance's own failure, if any; other instances of the
	// batch are unaffected.
	Err error
}

// sampleAll draws every variable of inst in identifier order, exactly like
// the solo resamplers, so a packed instance consumes its private RNG stream
// in the solo sequence.
func sampleAll(inst *model.Instance, r *prng.Rand) *model.Assignment {
	a := model.NewAssignment(inst)
	for vid := 0; vid < inst.NumVars(); vid++ {
		a.Fix(vid, inst.Var(vid).Dist.Sample(r))
	}
	return a
}

// resample redraws the scope of instance k's event id in scope order (solo
// order), keeping the packed kernel mirror (if any) in step.
func (st *packedState) resample(k, id int) {
	inst, a, r := st.p.Instance(k), st.asn[k], st.rngs[k]
	for _, vid := range inst.Event(id).Scope {
		a.Unfix(vid)
		v := inst.Var(vid).Dist.Sample(r)
		a.Fix(vid, v)
		if st.kas != nil {
			st.kas[k].Set(vid, v)
		}
	}
}

// packedState is RunParallelMT's round-loop state.
type packedState struct {
	p       *Packed
	pool    *engine.Pool
	results []Result
	rngs    []*prng.Rand
	asn     []*model.Assignment
	active  []bool
	nActive int
	// bad / errs are the index-addressed scan outputs over the global
	// event space; scanning writes them, unpacking reads them. They back
	// the generic scan only; the kernel scan uses the packed bitset below.
	bad  []bool
	errs []error
	// Kernel state, used when EVERY packed instance compiles (nil slices
	// otherwise, and the batch runs the generic path): per-instance
	// compiled kernels and packed assignment mirrors, plus the violated
	// bitset over the packed WORD space — instance k owns words
	// [wordOff[k], wordOff[k+1]), one bit per local event. Scans shard over
	// word segments, so each worker writes whole words of one instance.
	kerns   []*kernel.Compiled
	kas     []*kernel.Assignment
	wordOff []int
	kbits   []uint64
}

func newPackedState(p *Packed, seeds []uint64, o Options) (*packedState, error) {
	if len(seeds) != p.Len() {
		return nil, fmt.Errorf("batch: %d seeds for %d instances", len(seeds), p.Len())
	}
	st := &packedState{
		p:       p,
		pool:    o.pool(),
		results: make([]Result, p.Len()),
		rngs:    make([]*prng.Rand, p.Len()),
		asn:     make([]*model.Assignment, p.Len()),
		active:  make([]bool, p.Len()),
		nActive: p.Len(),
		bad:     make([]bool, p.TotalEvents()),
		errs:    make([]error, p.TotalEvents()),
	}
	for k := 0; k < p.Len(); k++ {
		st.rngs[k] = prng.New(seeds[k])
		st.asn[k] = sampleAll(p.Instance(k), st.rngs[k])
		st.results[k].Assignment = st.asn[k]
		st.active[k] = true
	}
	if kerns := make([]*kernel.Compiled, p.Len()); p.Len() > 0 {
		ok := true
		for k := range kerns {
			if kerns[k] = kernel.For(p.Instance(k)); kerns[k] == nil {
				ok = false
				break
			}
		}
		if ok {
			st.kerns = kerns
			st.wordOff = make([]int, p.Len()+1)
			st.kas = make([]*kernel.Assignment, p.Len())
			for k, c := range kerns {
				st.wordOff[k+1] = st.wordOff[k] + c.EventWords()
				st.kas[k] = c.NewAssignment()
				st.kas[k].PackFrom(st.asn[k])
			}
			st.kbits = make([]uint64, st.wordOff[p.Len()])
		}
	}
	return st, nil
}

// scan evaluates every event of every still-active instance under that
// instance's current assignment, in ONE sharded pass over the packed index
// space. Writes are index-addressed, so the scan is deterministic for
// every worker count.
func (st *packedState) scan() {
	if st.kerns != nil {
		st.pool.ForEachSegments(st.wordOff, func(k, lo, hi int) {
			if !st.active[k] {
				return
			}
			c, base := st.kerns[k], st.wordOff[k]
			var vals []int
			if c.HasGeneric() {
				vals = make([]int, c.MaxScope())
			}
			c.ScanWords(st.kas[k], lo-base, hi-base, st.kbits[base:st.wordOff[k+1]], vals)
		})
		return
	}
	off := st.p.EventOffsets()
	st.pool.ForEachSegments(off, func(k, lo, hi int) {
		if !st.active[k] {
			return
		}
		inst, a, base := st.p.Instance(k), st.asn[k], off[k]
		for g := lo; g < hi; g++ {
			st.bad[g], st.errs[g] = inst.Violated(g-base, a)
		}
	})
}

// violated collects instance k's violated local event ids (ascending, the
// solo order) from the last scan, or the first scan error.
func (st *packedState) violated(k int, buf []int) ([]int, error) {
	buf = buf[:0]
	if st.kerns != nil {
		base := st.wordOff[k]
		for wi := base; wi < st.wordOff[k+1]; wi++ {
			w := st.kbits[wi]
			eb := (wi - base) << 6
			for w != 0 {
				buf = append(buf, eb+bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
		return buf, nil
	}
	off := st.p.EventOffsets()
	for g := off[k]; g < off[k+1]; g++ {
		if st.errs[g] != nil {
			return nil, st.errs[g]
		}
		if st.bad[g] {
			buf = append(buf, g-off[k])
		}
	}
	return buf, nil
}

// finish deactivates instance k.
func (st *packedState) finish(k int) {
	st.active[k] = false
	st.nActive--
}

// cancelAll finalizes every still-active instance with the partial state it
// reached, mirroring the solo runners' cancellation contract (assignment
// kept, Satisfied false).
func (st *packedState) cancelAll() {
	for k := range st.active {
		if st.active[k] {
			st.finish(k)
		}
	}
}

// RunParallelMT runs the parallel Moser-Tardos resampler on every packed
// instance, with one sharded violated-event scan per global round covering
// all still-active instances. Instance k draws from prng.New(seeds[k]) in
// the solo order, so its Result — assignment, rounds, resamplings — is
// bit-identical to mt.Parallel(inst, prng.New(seeds[k]), opts.MaxRounds).
// Instances terminate individually: once satisfied (or out of round
// budget) they leave the scan; the run ends when none are active.
func RunParallelMT(p *Packed, seeds []uint64, o Options) ([]Result, error) {
	st, err := newPackedState(p, seeds, o)
	if err != nil {
		return nil, err
	}
	maxRounds := o.MaxRounds
	if maxRounds == 0 {
		maxRounds = defaultMaxRounds
	}
	ctx := o.ctx()
	var buf []int
	for st.nActive > 0 {
		if cerr := ctx.Err(); cerr != nil {
			st.cancelAll()
			return st.results, fmt.Errorf("batch: parallel resampler cancelled: %w", cerr)
		}
		st.scan()
		for k := 0; k < p.Len(); k++ {
			if !st.active[k] {
				continue
			}
			res := &st.results[k]
			var verr error
			buf, verr = st.violated(k, buf)
			if verr != nil {
				res.Err = verr
				st.finish(k)
				continue
			}
			switch {
			case len(buf) == 0:
				res.Satisfied = true
				st.finish(k)
			case res.Rounds == maxRounds:
				res.ViolatedEvents = len(buf)
				st.finish(k)
			default:
				res.Rounds++
				if st.kerns != nil {
					c, vb := st.kerns[k], st.kbits[st.wordOff[k]:st.wordOff[k+1]]
					for _, id := range buf {
						if !c.HasLowerViolatedNeighbor(vb, id) {
							st.resample(k, id)
							res.Resamplings++
						}
					}
					break
				}
				g := p.Instance(k).DependencyGraph()
				isViolated := make(map[int]bool, len(buf))
				for _, id := range buf {
					isViolated[id] = true
				}
				for _, id := range buf {
					minimum := true
					for _, u := range g.Neighbors(id) {
						if isViolated[u] && u < id {
							minimum = false
							break
						}
					}
					if minimum {
						st.resample(k, id)
						res.Resamplings++
					}
				}
			}
		}
	}
	return st.results, nil
}

// RunFixSequential runs the paper's deterministic sequential fixer on every
// packed instance, parallelized ACROSS instances on the pool (the fixer
// itself is inherently sequential). Each instance's result is the solo
// core.FixSequential output — the fixer is deterministic and the instances
// share no state. opts.Core must not carry Trace or checkpoint hooks.
func RunFixSequential(p *Packed, o Options) ([]Result, error) {
	if o.Core.Trace != nil || o.Core.OnCheckpoint != nil || o.Core.Resume != nil {
		return nil, fmt.Errorf("batch: core trace/checkpoint options are not supported in packed runs")
	}
	results := make([]Result, p.Len())
	ctx := o.ctx()
	copts := o.Core
	o.pool().ForEach(p.Len(), func(k int) {
		res, err := core.FixSequentialCtx(ctx, p.Instance(k), nil, copts)
		r := &results[k]
		r.Err = err
		if res != nil {
			r.Assignment = res.Assignment
			r.VarsFixed = res.Stats.VarsFixed
			if err == nil {
				r.ViolatedEvents = res.Stats.FinalViolatedEvents
				r.Satisfied = r.ViolatedEvents == 0
			}
		}
	})
	if cerr := ctx.Err(); cerr != nil {
		return results, fmt.Errorf("batch: fixer batch cancelled: %w", cerr)
	}
	return results, nil
}
