// Package local implements a synchronous message-passing runtime for the
// LOCAL model of distributed computing, the model in which the paper's
// distributed corollaries are stated.
//
// The network is an undirected graph; computation proceeds in synchronous
// rounds. In every round each node may send one message of unbounded size to
// each neighbor, receive the messages sent to it, and perform unbounded
// local computation. The complexity measure is the number of rounds.
//
// Nodes are driven by user-provided Machines. Each round is one pass over
// the nodes on a persistent sharded worker pool (internal/engine): workers
// pull contiguous node shards off an atomic cursor, step every
// still-running machine, and write each message it returns straight into
// the receiver's slot of the next round's inbox. The inbox is
// double-buffered, so a round reads one buffer while it fills the other,
// and every buffer and table is built once per run. A run whose rounds are
// too small to share — n machine steps plus the inbox slots (the sum of
// the degrees) below a measured constant — runs every round inline on the
// caller instead, because handing such a round to the pool costs more
// than the round itself; so does every run with Workers 1. The path is
// chosen once per run, and a panic inside a round leaves Run as a
// *fault.PanicError on either path. A machine halts by returning done; the
// run finishes when every machine has halted. Determinism is guaranteed
// bit-for-bit for every worker count and either path because machines own
// disjoint state, every inbox slot has exactly one writer, and every count
// is an order-independent sum. The golden-table tests
// in internal/exp sweep Workers ∈ {1, 2, GOMAXPROCS}, but their graphs are
// all below the cutoff, so they compare inline runs with inline runs; the
// pooled path is held to the inline one on graphs above the cutoff by
// TestRunDeterministicAcrossWorkers here, TestColoringPooledMatchesInline
// in internal/coloring and TestDeltaRelayMatchesFlooding in internal/core.
//
// Identifiers: every node receives a unique ID. By default IDs are a
// deterministic pseudo-random permutation of a polynomial ID space, matching
// the standard LOCAL assumption that IDs are arbitrary distinct O(log n)-bit
// numbers (adversarially chosen, so algorithms must not rely on them being
// 0..n-1).
package local

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/prng"
)

// Message is an arbitrary value exchanged between neighbors. The runtime
// passes messages by reference for efficiency, so a receiver must treat a
// message as immutable (mutating it is a data race by design), and so must
// the sender until the Machine buffer contract lets it reuse the value. A
// nil Message means "no message".
type Message any

// NodeInfo is the static knowledge a node has at wake-up: its own ID and
// degree, the IDs of its neighbors (indexed by port 0..Degree-1), and the
// global parameters n and Δ that LOCAL algorithms customarily assume known.
type NodeInfo struct {
	// ID is the node's unique identifier.
	ID uint64
	// Port i connects to the neighbor with ID NeighborIDs[i].
	NeighborIDs []uint64
	// N is the number of nodes in the network.
	N int
	// MaxDegree is the maximum degree Δ of the network.
	MaxDegree int
}

// Degree returns the number of neighbors.
func (n *NodeInfo) Degree() int { return len(n.NeighborIDs) }

// Machine is the program run by one node.
//
// Buffer contract: the runtime copies the messages out of the send slice
// a Round call returns before it steps the machine again and keeps no
// reference to the slice, so a machine may return the same slice every
// round. The message values themselves are read by the receivers during
// the next round, concurrently with the sender's next Round call, so a
// value sent in round r must not change before round r+2: allocate it
// fresh, or alternate two buffers by round parity. The recv slice belongs
// to the runtime, which rewrites it after the call returns; a machine must
// not keep it.
type Machine interface {
	// Init is called once before the first round.
	Init(info NodeInfo)
	// Round is called once per synchronous round with the messages received
	// from each port (nil for "no message"; indexed like NeighborIDs). It
	// returns the messages to send per port (nil slice means "send
	// nothing") and whether the machine halts after this round. A halted
	// machine is never called again and sends nothing in later rounds.
	Round(round int, recv []Message) (send []Message, done bool)
}

// Stats summarizes a run.
//
// When Run fails mid-round (a machine sent a message slice of the wrong
// length), the returned Stats is still well defined: Rounds includes the
// failing round, Steps and CrashSteps include its steps and crashes, and
// MessagesSent and MessagesDropped exclude the failing round entirely.
// On ErrRoundLimit, Stats reflects the MaxRounds completed rounds. On
// cancellation (Options.Ctx) Stats reflects exactly the rounds completed
// before the context was observed done: the runtime checks the context
// between rounds, so a cancel arriving mid-round lets that round finish
// and is acted on before the next one starts.
type Stats struct {
	// Rounds is the number of synchronous rounds until the last machine
	// halted.
	Rounds int
	// MessagesSent counts all non-nil messages over the whole run.
	MessagesSent int
	// Steps counts Machine.Round invocations over the whole run.
	Steps int
	// MessagesDropped counts messages removed by fault injection
	// (Options.Fault); they are excluded from MessagesSent. Zero without an
	// injector.
	MessagesDropped int
	// CrashSteps counts node-rounds lost to injected crash-stops: a crashed
	// node is not stepped and sends nothing for that round but stays in the
	// computation. Zero without an injector.
	CrashSteps int
}

// ErrRoundLimit indicates that the round limit was reached before all
// machines halted.
var ErrRoundLimit = errors.New("local: round limit exceeded")

// Options configures a run.
type Options struct {
	// Ctx, if non-nil, makes the run cancellable: the runtime checks the
	// context once per round (before the round's pass) and, when it is
	// done, stops and returns the partial Stats of the completed rounds
	// together with an error wrapping ctx.Err() (test with errors.Is
	// against context.Canceled / context.DeadlineExceeded). Rounds are
	// never torn mid-pass, so the partial Stats obey the same contract as
	// a mid-round failure and cancellation is observed within one round.
	// Every layer that threads Options through to Run — the colouring
	// machines, the distributed fixers, the distributed Moser-Tardos
	// resampler, the experiment harness — inherits cancellation from this
	// field. Nil means the run is not cancellable.
	Ctx context.Context
	// MaxRounds aborts the run with ErrRoundLimit if some machine is still
	// running after this many rounds. 0 means the default of 10^6.
	MaxRounds int
	// IDSeed seeds the pseudo-random ID assignment. Runs with equal seeds
	// get equal IDs.
	IDSeed uint64
	// SequentialIDs assigns IDs 0..n-1 in node order instead of random
	// ones. Tests use this for reproducible worst cases.
	SequentialIDs bool
	// PresetIDs, if non-nil, assigns IDs[v] to node v verbatim (they must
	// be distinct). It overrides IDSeed and SequentialIDs. Callers use it
	// when machines need to be configured with the IDs of specific other
	// nodes (e.g. an input orientation) before the run starts.
	PresetIDs []uint64
	// Workers caps the worker count of the sharded execution engine.
	// 0 uses the process-wide shared pool (GOMAXPROCS workers); 1 runs
	// fully inline. A larger value is an upper bound, not a promise: a run
	// whose rounds are too small to share (n plus the sum of the degrees
	// below the runtime's measured cutoff) runs inline whatever the value.
	// Results are bit-for-bit identical for every value.
	Workers int
	// OnRound, if non-nil, observes per-round execution stats after each
	// round's pass. It is called from the coordinating goroutine, in round
	// order. The stream is deterministic: identical for every Workers
	// value.
	OnRound func(engine.RoundStats)
	// Metrics, if non-nil, receives the runtime's metric families: local_*
	// counters and histograms (rounds, steps, messages, per-round
	// message/halt histograms, the per-round pass timing
	// local_compute_seconds) and the engine_* sharding counters (shards
	// executed / stolen). Collection is race-clean and never changes
	// results; when nil the runtime skips all timing calls (the disabled
	// path costs nothing).
	Metrics *obs.Registry
	// Trace, if non-nil, receives one structured JSONL event per round
	// (kind "round") bracketed by "run_start" / "run_end" markers, all
	// tagged with a per-run id. Like Metrics it never changes results.
	Trace *obs.Recorder
	// Fault, if non-nil, injects seeded faults into the run: messages are
	// dropped as their sender writes them (DropMessage, keyed by the
	// receiver and its inbox slot), nodes crash-stop for single rounds
	// (CrashNode), and whole shards of a round's pass panic (PanicShard) —
	// the panic leaves Run as a *fault.PanicError and is NOT recovered
	// here, so callers that must survive it (the job service) recover it
	// themselves. PanicShard is keyed by a shard's first node, so an
	// inline run, one shard per round, draws once per round. Drop and
	// crash decisions are keyed per (round, node[, port]), so the faulty
	// execution is itself deterministic and worker-count independent;
	// Stats.MessagesDropped / Stats.CrashSteps account the damage. Nil
	// injects nothing at no cost.
	Fault *fault.Injector
}

// IDSpace returns the size of the identifier space used for the random ID
// assignment of a run on n nodes: the standard LOCAL assumption of
// polynomially bounded IDs (here n³, floored at 1024). Colour-reduction
// algorithms use it as the initial palette size.
func IDSpace(n int) uint64 {
	space := uint64(n) * uint64(n) * uint64(n)
	if space < 1024 {
		space = 1024
	}
	return space
}

// Run executes one machine per node of g until all machines halt.
// newMachine is called once per node, in node order, to construct the
// machines.
func Run(g *graph.Graph, newMachine func(node int) Machine, opts Options) (Stats, error) {
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 1_000_000
	}
	n := g.N()
	ids := assignIDs(n, opts)

	// Per-node tables, built once per run as flat arrays, node v owning
	// entries off[v] to off[v+1]: the neighbour IDs handed to Init, the two
	// inbox buffers, and to, which names the inbox slot each of v's ports
	// fills. A round reads only these, so it copies no adjacency.
	off := make([]int, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + g.Degree(v)
	}
	// to[off[u]+p] is the flat inbox slot that u's port p writes: the slot
	// under which the port-p neighbour v sees u. Neighbour lists are
	// ascending, so visiting v in ascending order reaches every u's ports
	// in order; seen[u] counts the ones reached so far.
	to := make([]int, off[n])
	idFlat := make([]uint64, off[n])
	seen := make([]int, n)
	for v := 0; v < n; v++ {
		i := off[v]
		g.ForEachNeighbor(v, func(u, _ int) {
			to[off[u]+seen[u]] = i
			seen[u]++
			idFlat[i] = ids[u]
			i++
		})
	}
	machines := make([]Machine, n)
	maxDeg := g.MaxDegree()
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		machines[v] = newMachine(v)
		machines[v].Init(NodeInfo{ID: ids[v], NeighborIDs: idFlat[lo:hi:hi], N: n, MaxDegree: maxDeg})
	}

	// The inbox is double-buffered: round r's machines read cur while they
	// write next, and the buffers swap between rounds. running is the
	// running set. Every write is index-addressed, so results are
	// independent of the worker count and of shard scheduling.
	cur, next := make([]Message, off[n]), make([]Message, off[n])
	running := make([]bool, n)
	numRunning := n
	for v := range running {
		running[v] = true
	}

	// The path is chosen once per run, from the runtime's own work in one
	// round: n machine steps plus off[n] inbox slots.
	pool, release := runPool(opts, n+off[n])
	defer release()
	pass := runInline
	if pool != nil {
		pass = pool.ForEachShardStats
	}
	inj := opts.Fault
	crashing, panicking, dropping := inj.Crashing(), inj.Panicking(), inj.Dropping()
	// A drop is keyed by its receiver and inbox slot, so drop injection
	// needs each slot's owner.
	var owner []int
	if dropping {
		owner = make([]int, off[n])
		for v := 0; v < n; v++ {
			for j := off[v]; j < off[v+1]; j++ {
				owner[j] = v
			}
		}
	}

	// Observability: resolved once per run; nil when disabled, in which
	// case the round loop takes no timestamps and tracks no shard stats.
	ro := newRunObs(opts, n, pool.Workers())

	// A round is one sharded pass, built once per run: it reads the round
	// in flight from round, and every shard folds its counts into rc once.
	var (
		round int
		rc    roundCounts
		rcMu  sync.Mutex
	)
	// Workers pull contiguous node shards, step every running machine on
	// its slots of cur, and write each message it returns straight into
	// the receiver's slot of next. Each slot of next has one writer, the
	// neighbour behind it, which writes nil when it is halted or crashed or
	// sends nothing, so next is rewritten whole every round. The fault
	// checks are hoisted behind per-class booleans so the fault-free path
	// costs one predictable branch per node at most; injected drops happen
	// at the sender but are keyed by the receiver's (round, node, slot), and
	// the message is replaced by nil exactly as if the sender had stayed
	// silent.
	step := func(lo, hi int) {
		// Panic with the bare error: the engine's shard recover (or
		// runInline on the inline path) wraps it into a *fault.PanicError,
		// capturing the stack at THIS panic site.
		if panicking && inj.PanicShard(round, lo) {
			panic(fmt.Errorf("%w: compute shard [%d, %d) round %d", fault.ErrInjected, lo, hi, round))
		}
		c := roundCounts{bad: -1}
		for v := lo; v < hi; v++ {
			slots := to[off[v]:off[v+1]]
			var send []Message
			switch {
			case !running[v]:
			case crashing && inj.CrashNode(round, v):
				// Crash-stop for this round: no step, no sends; the
				// machine stays in the computation and resumes next round
				// having missed a step (its inbox for this round is
				// overwritten unread).
				c.crashed++
			default:
				var done bool
				send, done = machines[v].Round(round, cur[off[v]:off[v+1]:off[v+1]])
				c.steps++
				if done {
					running[v] = false
					c.halted++
				}
				if send != nil && len(send) != len(slots) {
					if c.bad < 0 {
						c.bad, c.badLen = v, len(send)
					}
					send = nil
				}
			}
			if send == nil {
				for _, j := range slots {
					next[j] = nil
				}
				continue
			}
			for p, msg := range send {
				j := slots[p]
				if msg != nil {
					if dropping && inj.DropMessage(round, owner[j], j-off[owner[j]]) {
						msg = nil
						c.dropped++
					} else {
						c.sent++
					}
				}
				next[j] = msg
			}
		}
		rcMu.Lock()
		rc.add(c)
		rcMu.Unlock()
	}

	var stats Stats
	for round = 1; numRunning > 0; round++ {
		if opts.Ctx != nil {
			if cerr := opts.Ctx.Err(); cerr != nil {
				err := fmt.Errorf("local: run cancelled after %d rounds, %d machines still running: %w", stats.Rounds, numRunning, cerr)
				ro.runEnd(stats, err)
				return stats, err
			}
		}
		if round > opts.MaxRounds {
			err := fmt.Errorf("%w: %d rounds, %d machines still running", ErrRoundLimit, opts.MaxRounds, numRunning)
			ro.runEnd(stats, err)
			return stats, err
		}
		stats.Rounds = round
		ro.roundBegin()

		rc = roundCounts{bad: -1}
		pass(n, step, ro.passStats())
		cur, next = next, cur
		numRunning -= rc.halted
		stats.Steps += rc.steps
		stats.CrashSteps += rc.crashed

		// A machine that returns a message slice of the wrong length
		// poisons the round: report the lowest offender, whatever the
		// worker count, and return the (well-defined) partial Stats, which
		// count this round's steps but none of its messages.
		if rc.bad >= 0 {
			err := fmt.Errorf("local: node %d sent %d messages, degree is %d", rc.bad, rc.badLen, g.Degree(rc.bad))
			ro.runEnd(stats, err)
			return stats, err
		}
		stats.MessagesSent += rc.sent
		stats.MessagesDropped += rc.dropped

		rs := engine.RoundStats{
			Round:    round,
			Steps:    rc.steps,
			Messages: rc.sent,
			Active:   numRunning,
			Halted:   rc.halted,
			Dropped:  rc.dropped,
			Crashed:  rc.crashed,
		}
		ro.roundEnd(rs)
		if opts.OnRound != nil {
			opts.OnRound(rs)
		}
	}
	ro.runEnd(stats, nil)
	return stats, nil
}

// roundCounts is what one round's pass tallies. Each shard counts its own
// nodes and folds them in once, so every count is an order-independent sum
// and bad the lowest offender over all shards.
type roundCounts struct {
	steps, crashed, halted, sent, dropped int
	// bad is the lowest node that returned a send slice of badLen messages
	// for another degree, or -1 when none did.
	bad, badLen int
}

func (c *roundCounts) add(s roundCounts) {
	c.steps += s.steps
	c.crashed += s.crashed
	c.halted += s.halted
	c.sent += s.sent
	c.dropped += s.dropped
	if s.bad >= 0 && (c.bad < 0 || s.bad < c.bad) {
		c.bad, c.badLen = s.bad, s.badLen
	}
}

// runObs is the per-run observability state: the resolved metric
// collectors, the trace recorder, and the scratch timing/sharding state of
// the round in flight. A nil *runObs (observability disabled) makes every
// hook a no-op and keeps the round loop free of time and atomic-stat calls.
type runObs struct {
	rec   *obs.Recorder
	runID int64
	// trace / parent / job tag every emitted event with the request trace
	// the run executes under (zero when Options.Ctx carries no trace), so a
	// trace ID recovered from an NDJSON end event or an SLO exemplar finds
	// the run's full round history in the JSONL stream.
	trace, parent, job string

	runs, rounds, steps, messages *obs.Counter
	dropped, crashed              *obs.Counter
	shards, stolen                *obs.Counter
	roundMsgs, roundHalts         *obs.Histogram
	computeSec                    *obs.Histogram

	// Scratch state of the round in flight.
	start time.Time
	rs    engine.RunStats
}

// newRunObs resolves the run's collectors and emits the run_start marker;
// it returns nil when both observability channels are off.
func newRunObs(opts Options, n, workers int) *runObs {
	if opts.Metrics == nil && opts.Trace == nil {
		return nil
	}
	ro := &runObs{rec: opts.Trace}
	if tc := obs.TraceFrom(opts.Ctx); tc.Valid() {
		ro.trace, ro.parent, ro.job = tc.Trace, tc.Span, tc.Job
	}
	if m := opts.Metrics; m != nil {
		ro.runs = m.Counter("local_runs_total")
		ro.rounds = m.Counter("local_rounds_total")
		ro.steps = m.Counter("local_steps_total")
		ro.messages = m.Counter("local_messages_total")
		ro.dropped = m.Counter("local_messages_dropped_total")
		ro.crashed = m.Counter("local_crash_steps_total")
		ro.shards = m.Counter("engine_shards_total")
		ro.stolen = m.Counter("engine_shards_stolen_total")
		ro.roundMsgs = m.Histogram("local_round_messages", obs.CountBuckets)
		ro.roundHalts = m.Histogram("local_round_halted", obs.CountBuckets)
		ro.computeSec = m.Histogram("local_compute_seconds", obs.DurationBuckets)
	}
	if ro.rec != nil {
		ro.runID = ro.rec.NextRun()
	}
	ro.runs.Inc()
	if ro.rec != nil {
		ro.rec.Emit(obs.Event{
			Kind: "run_start", Run: ro.runID, Nodes: n, Workers: workers,
			Trace: ro.trace, Parent: ro.parent, Job: ro.job,
		})
	}
	return ro
}

// roundBegin stamps the round's start.
func (ro *runObs) roundBegin() {
	if ro == nil {
		return
	}
	ro.start = time.Now()
}

// passStats returns the RunStats slot for the round's pass (nil when
// disabled, selecting the engine's zero-overhead path).
func (ro *runObs) passStats() *engine.RunStats {
	if ro == nil {
		return nil
	}
	return &ro.rs
}

// roundEnd folds the finished round into the metric families and emits its
// trace event.
func (ro *runObs) roundEnd(rs engine.RoundStats) {
	if ro == nil {
		return
	}
	computeNS := time.Since(ro.start).Nanoseconds()
	ro.rounds.Inc()
	ro.steps.Add(int64(rs.Steps))
	ro.messages.Add(int64(rs.Messages))
	ro.dropped.Add(int64(rs.Dropped))
	ro.crashed.Add(int64(rs.Crashed))
	ro.shards.Add(int64(ro.rs.Shards))
	ro.stolen.Add(int64(ro.rs.Stolen))
	ro.roundMsgs.Observe(float64(rs.Messages))
	ro.roundHalts.Observe(float64(rs.Halted))
	ro.computeSec.Observe(float64(computeNS) / 1e9)
	if ro.rec != nil {
		ro.rec.Emit(obs.Event{
			Kind:      "round",
			Run:       ro.runID,
			Round:     rs.Round,
			Steps:     rs.Steps,
			Messages:  rs.Messages,
			Active:    rs.Active,
			Halted:    rs.Halted,
			Dropped:   rs.Dropped,
			Crashed:   rs.Crashed,
			Shards:    ro.rs.Shards,
			Stolen:    ro.rs.Stolen,
			ComputeNS: computeNS,
			Trace:     ro.trace,
			Parent:    ro.parent,
			Job:       ro.job,
		})
	}
}

// runEnd emits the run_end trace marker (with the failure, if any).
func (ro *runObs) runEnd(stats Stats, err error) {
	if ro == nil || ro.rec == nil {
		return
	}
	e := obs.Event{
		Kind: "run_end", Run: ro.runID, Rounds: stats.Rounds,
		Steps: stats.Steps, Messages: stats.MessagesSent,
		Trace: ro.trace, Parent: ro.parent, Job: ro.job,
	}
	if err != nil {
		e.Err = err.Error()
	}
	ro.rec.Emit(e)
}

// inlineWork is the work of one round, in machine steps plus inbox slots
// (n plus the sum of the degrees), below which Run keeps every round on the
// caller: a round that small costs less than handing its one pass to the
// engine pool and joining the helpers. The crossover, measured with
// BenchmarkLocalCutoff on cycles at GOMAXPROCS 2 on a 2-vCPU host, with the
// constant moved to each size, inline (Workers 1) against the 2-worker
// shared pool, in ns per unit of round work over 3 runs: a flooding
// machine, which allocates a send slice per round like most machines here,
// ran 33.6–43.6 inline vs 38.5–47.3 pooled at 2048, 36.6–50.2 vs 31.1–37.8
// at 4096 and 41.3–44.2 vs 28.3–35.5 at 8192; a quiet machine, 6.6–8.3 vs
// 8.7–10.1 at 2048, 7.5–8.5 vs 8.6–9.6 at 4096 and 7.3–8.6 vs 7.5–8.9 at
// 8192, breaking even near 8192. At GOMAXPROCS 1 every row runs inline:
// 6.5–8.7 (quiet) and 31.4–40.8 (flood) at 4096.
const inlineWork = 4096

// runPool selects the execution pool for one run. It returns a nil pool,
// meaning every round runs inline on the caller, for Workers 1, for a
// round whose work is below inlineWork, and for a pool that would have one
// worker. Otherwise it returns the process-wide shared pool by default, or
// a transient pool (closed by release) for an explicit non-default worker
// count.
func runPool(opts Options, work int) (pool *engine.Pool, release func()) {
	release = func() {}
	switch {
	case opts.Workers == 1 || work < inlineWork:
		return nil, release
	case opts.Workers == 0 || opts.Workers == engine.Shared().Workers():
		pool = engine.Shared()
	default:
		pool = engine.New(opts.Workers)
		release = pool.Close
	}
	if pool.Workers() == 1 {
		return nil, release
	}
	return pool, release
}

// runInline runs a round's pass on the caller, as the engine pool
// would with a single shard, and raises a panic the way the pool does: as
// a *fault.PanicError carrying the stack of the panic site.
func runInline(n int, fn func(lo, hi int), rs *engine.RunStats) {
	defer func() {
		if r := recover(); r != nil {
			panic(fault.CapturePanic(r))
		}
	}()
	fn(0, n)
	if rs != nil {
		*rs = engine.RunStats{Shards: 1}
	}
}

// assignIDs produces the unique node identifiers for a run.
func assignIDs(n int, opts Options) []uint64 {
	ids := make([]uint64, n)
	if opts.PresetIDs != nil {
		if len(opts.PresetIDs) != n {
			panic(fmt.Sprintf("local: %d preset IDs for %d nodes", len(opts.PresetIDs), n))
		}
		copy(ids, opts.PresetIDs)
		seen := make(map[uint64]bool, n)
		for _, id := range ids {
			if seen[id] {
				panic(fmt.Sprintf("local: duplicate preset ID %d", id))
			}
			seen[id] = true
		}
		return ids
	}
	if opts.SequentialIDs {
		for v := range ids {
			ids[v] = uint64(v)
		}
		return ids
	}
	// Random distinct IDs from the space [0, n^3): polynomially bounded, as
	// the LOCAL model assumes, and adversarially scrambled relative to the
	// topology.
	r := prng.New(opts.IDSeed ^ 0x1015_1015_1015_1015)
	space := IDSpace(n)
	seen := make(map[uint64]bool, n)
	for v := 0; v < n; v++ {
		for {
			id := r.Uint64() % space
			if !seen[id] {
				seen[id] = true
				ids[v] = id
				break
			}
		}
	}
	return ids
}
