// Package fault is the seeded, deterministic fault-injection and recovery
// layer of the repository. The paper's algorithms are distributed: the
// LOCAL model lets an adversary schedule nodes and lose messages, and the
// deterministic fixers are proved robust against adversarial fixing orders.
// This package mirrors that adversary operationally, so the engine, the
// LOCAL runtime and the job service can be exercised — and proved to
// survive — under injected panics, dropped messages and crash-stopped
// nodes.
//
// Three concerns live here because they share one recovery story:
//
//   - Injection. A Plan holds seeded fault rates; an Injector turns it into
//     stateless yes/no decisions keyed by (seed, coordinates) hashes, so a
//     decision is reproducible, independent of goroutine scheduling, and —
//     for per-node and per-message faults — independent of the engine
//     worker count.
//   - Panic capture. PanicError carries a recovered panic value together
//     with the stack of the panicking goroutine. The engine pool converts
//     worker panics into a re-panic of a *PanicError on the submitting
//     goroutine; the service scheduler recovers it into a failed job whose
//     end event carries the stack, and the daemon never dies.
//   - Recovery state. Checkpoint snapshots a runtime's resumable state
//     (assignment, progress counters, PRNG state, the fixer's φ table) so
//     a retried job continues from the last checkpoint instead of round
//     zero. Backoff computes the capped, jittered exponential delay between
//     retry attempts.
//
// Everything is deterministic by construction: capturing a checkpoint is a
// pure copy that never perturbs the runtime, and the same Plan seed always
// injects the same faults.
package fault

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/prng"
)

// ErrInjected is the sentinel wrapped by every failure this package forces:
// injected shard panics unwrap to it, so tests and retry policies can tell
// a synthetic fault from an organic one with errors.Is.
var ErrInjected = errors.New("fault: injected")

// Plan holds the seeded fault rates of one injection campaign. The zero
// Plan injects nothing. Rates are probabilities in [0, 1).
type Plan struct {
	// Seed keys every injection decision; equal seeds inject equal faults.
	Seed uint64
	// PanicRate is the probability that a shard of a LOCAL round's pass
	// panics, per shard per round (the panic unwinds through the engine
	// pool as a *PanicError).
	PanicRate float64
	// DropRate is the probability that a delivered message is dropped,
	// per message per round.
	DropRate float64
	// CrashRate is the probability that a node crash-stops for one round
	// (it is not stepped and sends nothing, but stays in the computation),
	// per node per round.
	CrashRate float64
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return p.PanicRate > 0 || p.DropRate > 0 || p.CrashRate > 0
}

// Merge combines a baseline plan (e.g. daemon-wide flags) with an override
// (e.g. a job's own fault fields): rates take the maximum, and the
// override's seed wins when non-zero.
func (p Plan) Merge(o Plan) Plan {
	m := p
	if o.Seed != 0 {
		m.Seed = o.Seed
	}
	m.PanicRate = max(m.PanicRate, o.PanicRate)
	m.DropRate = max(m.DropRate, o.DropRate)
	m.CrashRate = max(m.CrashRate, o.CrashRate)
	return m
}

// Validate rejects rates outside [0, 1).
func (p Plan) Validate() error {
	for _, r := range []float64{p.PanicRate, p.DropRate, p.CrashRate} {
		if r < 0 || r >= 1 {
			return fmt.Errorf("fault: rate %v out of range [0, 1)", r)
		}
	}
	return nil
}

// Injector makes a Plan's random decisions. Decisions are stateless hashes
// of (seed, kind, coordinates): no generator state advances, so any number
// of goroutines may consult the injector concurrently and a decision never
// depends on the order in which others were made. A nil *Injector is the
// disabled injector — every decision is "no" at the cost of one nil check.
type Injector struct {
	plan Plan
}

// Decision-kind salts, arbitrary odd constants keeping the three hash
// families independent of each other.
const (
	saltPanic uint64 = 0x9e3779b97f4a7c15
	saltDrop  uint64 = 0xc2b2ae3d27d4eb4f
	saltCrash uint64 = 0x165667b19e3779f9
)

// NewInjector returns an injector for the plan, or nil when the plan
// injects nothing (the zero-cost disabled path).
func NewInjector(p Plan) *Injector {
	if !p.Enabled() {
		return nil
	}
	return &Injector{plan: p}
}

// Derive returns an injector with the same rates but the seed mixed with
// salt. Retries use it (salt = attempt number) so every attempt draws an
// independent fault pattern — otherwise a deterministic injected panic
// would recur on every retry and no job could ever recover.
func (in *Injector) Derive(salt uint64) *Injector {
	if in == nil {
		return nil
	}
	p := in.plan
	p.Seed = prng.Mix64(p.Seed ^ prng.Mix64(salt))
	return &Injector{plan: p}
}

// decide hashes (seed, salt, a, b, c) into a uniform [0, 1) draw and
// compares it against rate.
func (in *Injector) decide(rate float64, salt, a, b, c uint64) bool {
	if in == nil || rate <= 0 {
		return false
	}
	h := prng.Mix64(in.plan.Seed ^ salt)
	h = prng.Mix64(h ^ a)
	h = prng.Mix64(h ^ b)
	h = prng.Mix64(h ^ c)
	return float64(h>>11)/(1<<53) < rate
}

// PanicShard reports whether the round's shard starting at index lo should
// panic in the given round. Keyed by the shard's start index, so the
// decision depends on the sharding (and therefore the worker count) —
// panic injection is a recovery drill, not part of the determinism
// contract, and is never enabled on golden runs.
func (in *Injector) PanicShard(round, lo int) bool {
	if in == nil {
		return false
	}
	return in.decide(in.plan.PanicRate, saltPanic, uint64(round), uint64(lo), 0)
}

// DropMessage reports whether the message arriving at node's port should be
// dropped in the given round. Keyed by (round, node, port): independent of
// the worker count.
func (in *Injector) DropMessage(round, node, port int) bool {
	if in == nil {
		return false
	}
	return in.decide(in.plan.DropRate, saltDrop, uint64(round), uint64(node), uint64(port))
}

// CrashNode reports whether node crash-stops for the given round. Keyed by
// (round, node): independent of the worker count.
func (in *Injector) CrashNode(round, node int) bool {
	if in == nil {
		return false
	}
	return in.decide(in.plan.CrashRate, saltCrash, uint64(round), uint64(node), 0)
}

// Panicking / Dropping / Crashing report whether the respective fault class
// is live, letting hot loops hoist the per-item check behind one bool.
func (in *Injector) Panicking() bool { return in != nil && in.plan.PanicRate > 0 }
func (in *Injector) Dropping() bool  { return in != nil && in.plan.DropRate > 0 }
func (in *Injector) Crashing() bool  { return in != nil && in.plan.CrashRate > 0 }

// PanicError is a recovered panic promoted to an error: the original panic
// value plus the stack of the goroutine that panicked, captured at the
// recover site. The engine pool re-panics a *PanicError on the submitting
// goroutine when a worker panics; the service scheduler recovers it into a
// failed job whose end event carries the stack.
type PanicError struct {
	// Value is the original value passed to panic.
	Value any
	// Stack is the formatted stack of the panicking goroutine.
	Stack []byte
}

// Error formats the panic value; the stack is available separately so logs
// and events can choose how much to show.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// Unwrap exposes an error panic value (in particular ErrInjected) to
// errors.Is / errors.As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// CapturePanic converts a recovered value into a *PanicError, capturing the
// current goroutine's stack. A value that already is a *PanicError is
// returned unchanged, so the stack of the original panic site survives
// re-panics across goroutine boundaries.
func CapturePanic(v any) *PanicError {
	if pe, ok := v.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Checkpoint is a resumable snapshot of a runtime's state, captured between
// iterations so no unit of work is ever torn. Which fields are populated
// depends on the algorithm; the service stores checkpoints opaquely in the
// job record and hands the latest one back to the runner on retry.
//
// Capturing a checkpoint is a pure copy: it never advances a PRNG stream or
// mutates runtime state, so runs with checkpointing enabled are
// bit-identical to runs without (the golden-table and equality tests pin
// this), and a resumed run continues bit-identically to the uninterrupted
// one.
//
// Checkpoints serialize to JSON for the cross-process migration path (a
// draining node exports them; another process resumes). The encoding is
// exact Go-to-Go: ints and the uint64 RNG words round-trip verbatim, and
// encoding/json emits float64s in shortest-exact form, so a checkpoint
// shipped over HTTP resumes bit-identically to one kept in memory.
type Checkpoint struct {
	// Algorithm tags the runtime that wrote the checkpoint; a runner only
	// resumes from a checkpoint taken by the same algorithm.
	Algorithm string `json:"algorithm,omitempty"`
	// Round is the runtime's progress counter in its native unit: parallel
	// resampling rounds (mtpar), resamplings (mtseq), variables fixed
	// (the sequential fixer).
	Round int `json:"round,omitempty"`
	// Resamplings is the resampling counter where distinct from Round.
	Resamplings int `json:"resamplings,omitempty"`
	// Values is the assignment value vector (complete for the resamplers;
	// meaningful only at fixed positions for the fixer, whose fixed set is
	// the order prefix of length Round).
	Values []int `json:"values,omitempty"`
	// Phi is the sequential fixer's flattened φ table (2 values per
	// dependency edge); nil for the resamplers.
	Phi []float64 `json:"phi,omitempty"`
	// Peaks / Counts are the fixer's running statistics, opaque to every
	// layer but internal/core.
	Peaks  []float64 `json:"peaks,omitempty"`
	Counts []int     `json:"counts,omitempty"`
	// RNG is the xoshiro256** state of the resampler's generator; zero for
	// the deterministic fixer.
	RNG [4]uint64 `json:"rng,omitempty"`
}

// Clone deep-copies the checkpoint, decoupling the stored snapshot from any
// buffers the runtime may keep mutating.
func (c *Checkpoint) Clone() *Checkpoint {
	if c == nil {
		return nil
	}
	d := *c
	d.Values = append([]int(nil), c.Values...)
	d.Phi = append([]float64(nil), c.Phi...)
	d.Peaks = append([]float64(nil), c.Peaks...)
	d.Counts = append([]int(nil), c.Counts...)
	return &d
}

// Backoff returns the delay before retry attempt (1-based): base·2^(attempt-1)
// capped at ceil, with a ±25% jitter drawn from r so synchronized failures
// do not retry in lockstep. A nil r disables the jitter; base <= 0 selects
// 100ms, ceil <= 0 selects 5s.
func Backoff(base, ceil time.Duration, attempt int, r *prng.Rand) time.Duration {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if ceil <= 0 {
		ceil = 5 * time.Second
	}
	if attempt < 1 {
		attempt = 1
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= ceil {
			d = ceil
			break
		}
	}
	if d > ceil {
		d = ceil
	}
	if r != nil {
		// Uniform in [0.75, 1.25)·d.
		d = time.Duration(float64(d) * (0.75 + r.Float64()/2))
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}
