// Package local implements a synchronous message-passing runtime for the
// LOCAL model of distributed computing, the model in which the paper's
// distributed corollaries are stated.
//
// The network is an undirected graph; computation proceeds in synchronous
// rounds. In every round each node may send one message of unbounded size to
// each neighbor, receive the messages sent to it, and perform unbounded
// local computation. The complexity measure is the number of rounds.
//
// Nodes are driven by user-provided Machines. Each round the runtime steps
// every still-running machine concurrently on a persistent sharded worker
// pool (internal/engine): workers pull contiguous node shards off an atomic
// cursor, so goroutine creation is amortised across rounds and the outbox /
// halt-flag buffers are reused round over round. Message delivery is
// likewise sharded, by destination node. A run whose rounds are too small
// to share — n machine steps plus the inbox slots (the sum of the degrees)
// below a measured constant — runs every round inline on the caller
// instead, because handing such a round to the pool costs more than the
// round itself; so does every run with Workers 1. The path is chosen once
// per run, and a panic inside a round leaves Run as a *fault.PanicError on
// either path. A machine halts by returning done; the run finishes when
// every machine has halted. Determinism is guaranteed bit-for-bit for every
// worker count and either path because machines own disjoint state and
// every phase writes only to index-addressed slices. The golden-table tests
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
	"sync/atomic"
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
// Buffer contract: the runtime reads the send slice a Round call returns
// only until that round's delivery phase ends, so a machine may return the
// same slice every round. The message values themselves are read by the
// receivers during the next round's compute phase, concurrently with the
// sender's next Round call, so a value sent in round r must not change
// before round r+2: allocate it fresh, or alternate two buffers by round
// parity.
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
// failing round, Steps includes its compute phase, MessagesSent excludes
// the failing round entirely (no partial deliveries), and machines that
// halted in the failing round are retired before the error is reported.
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
	// context once per round (before the compute phase) and, when it is
	// done, stops and returns the partial Stats of the completed rounds
	// together with an error wrapping ctx.Err() (test with errors.Is
	// against context.Canceled / context.DeadlineExceeded). Rounds are
	// never torn mid-phase, so the partial Stats obey the same contract as
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
	// round's delivery phase. It is called from the coordinating goroutine,
	// in round order. The stream is deterministic: identical for every
	// Workers value.
	OnRound func(engine.RoundStats)
	// Metrics, if non-nil, receives the runtime's metric families: local_*
	// counters and histograms (rounds, steps, messages, per-round
	// message/halt histograms, per-phase compute/deliver timings) and the
	// engine_* sharding counters (shards executed / stolen). Collection is
	// race-clean and never changes results; when nil the runtime skips all
	// timing calls (the disabled path costs nothing).
	Metrics *obs.Registry
	// Trace, if non-nil, receives one structured JSONL event per round
	// (kind "round") bracketed by "run_start" / "run_end" markers, all
	// tagged with a per-run id. Like Metrics it never changes results.
	Trace *obs.Recorder
	// Fault, if non-nil, injects seeded faults into the run: messages are
	// dropped in the delivery phase (DropMessage), nodes crash-stop for
	// single rounds in the compute phase (CrashNode), and whole compute
	// shards panic (PanicShard) — the panic leaves Run as a
	// *fault.PanicError and is NOT recovered here, so callers that must
	// survive it (the job service) recover it themselves. PanicShard is
	// keyed by a shard's first node, so an inline run, one shard per
	// phase, draws once per round. Drop and crash decisions are keyed per
	// (round, node[, port]), so the faulty execution is itself
	// deterministic and worker-count independent; Stats.MessagesDropped /
	// Stats.CrashSteps account the damage. Nil injects nothing at no cost.
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

	// Per-node tables, built once per run as capacity-capped windows of
	// flat arrays, node v owning entries off[v] to off[v+1]: the neighbour
	// IDs handed to Init, the inbox, and links, which names the outbox slot
	// that fills each inbox slot. A round reads only these, so it copies no
	// adjacency.
	off := make([]int, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + g.Degree(v)
	}
	// links[v][i] is the sender behind v's inbox slot i: the port-i
	// neighbour u and the port under which u sees v. Neighbour lists are
	// ascending, so visiting v in ascending order reaches every u's ports
	// in order; seen[u] counts the ones reached so far.
	linkFlat := make([]link, off[n])
	seen := make([]int, n)
	for v := 0; v < n; v++ {
		i := off[v]
		g.ForEachNeighbor(v, func(u, _ int) {
			linkFlat[i] = link{from: u, port: seen[u]}
			seen[u]++
			i++
		})
	}
	idFlat := make([]uint64, off[n])
	inFlat := make([]Message, off[n])
	links := make([][]link, n)
	inbox := make([][]Message, n)
	machines := make([]Machine, n)
	maxDeg := g.MaxDegree()
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		links[v] = linkFlat[lo:hi:hi]
		inbox[v] = inFlat[lo:hi:hi]
		nbrIDs := idFlat[lo:hi:hi]
		for i, l := range links[v] {
			nbrIDs[i] = ids[l.from]
		}
		machines[v] = newMachine(v)
		machines[v].Init(NodeInfo{ID: ids[v], NeighborIDs: nbrIDs, N: n, MaxDegree: maxDeg})
	}

	// Buffers reused across every round: the per-node outboxes, halt flags
	// and the running set. The engine shards index ranges over them; every
	// write is index-addressed, so results are independent of the worker
	// count and of shard scheduling.
	outbox := make([][]Message, n)
	doneFlags := make([]bool, n)
	running := make([]bool, n)
	numRunning := n
	for v := range running {
		running[v] = true
	}

	// The path is chosen once per run, from the runtime's own work in one
	// round: n machine steps plus off[n] inbox slots.
	pool, release := runPool(opts, n+off[n])
	defer release()
	phase := runInline
	if pool != nil {
		phase = pool.ForEachShardStats
	}
	inj := opts.Fault
	crashing, panicking, dropping := inj.Crashing(), inj.Panicking(), inj.Dropping()

	// Observability: resolved once per run; nil when disabled, in which
	// case the round loop takes no timestamps and tracks no shard stats.
	ro := newRunObs(opts, n, pool.Workers())
	ro.runStart()

	// markHalted retires machines that returned done this round and
	// reports how many it retired. It runs on both the success and the
	// error path, so Stats and the running set stay consistent even when a
	// round fails mid-way.
	markHalted := func() int {
		halted := 0
		for v := 0; v < n; v++ {
			if running[v] && doneFlags[v] {
				running[v] = false
				numRunning--
				halted++
			}
		}
		return halted
	}

	// The two phases of a round, built once per run: they read the round
	// in flight from round and fold their counts into the atomics, which
	// the loop resets before each phase.
	var (
		round                              int
		steps, crashes, delivered, dropped atomic.Int64
	)

	// Compute phase: workers pull contiguous node shards and step every
	// running machine. Machines own disjoint state; outbox and doneFlags
	// are written at the machine's own index only. The fault checks are
	// hoisted behind per-class booleans so the fault-free path costs one
	// predictable branch per node at most.
	compute := func(lo, hi int) {
		// Panic with the bare error: the engine's shard recover (or
		// runInline on the inline path) wraps it into a *fault.PanicError,
		// capturing the stack at THIS panic site.
		if panicking && inj.PanicShard(round, lo) {
			panic(fmt.Errorf("%w: compute shard [%d, %d) round %d", fault.ErrInjected, lo, hi, round))
		}
		stepped, crashed := 0, 0
		for v := lo; v < hi; v++ {
			if !running[v] {
				outbox[v] = nil
				continue
			}
			if crashing && inj.CrashNode(round, v) {
				// Crash-stop for this round: no step, no sends; the
				// machine stays in the computation and resumes next round
				// having missed a step (its inbox for this round is
				// overwritten unread).
				outbox[v] = nil
				doneFlags[v] = false
				crashed++
				continue
			}
			send, done := machines[v].Round(round, inbox[v])
			outbox[v] = send
			doneFlags[v] = done
			stepped++
		}
		steps.Add(int64(stepped))
		if crashed > 0 {
			crashes.Add(int64(crashed))
		}
	}

	// Delivery phase, sharded by destination: node v's inbox slot i is
	// filled from the outbox slot links[v][i]. Each inbox is written by
	// exactly one shard, so delivery is race-free; the message count is
	// accumulated per shard and folded in atomically (order-independent
	// sum). Injected drops happen here, on the receiver side: the message
	// is replaced by nil exactly as if the sender had stayed silent.
	deliver := func(lo, hi int) {
		count, drops := 0, 0
		for v := lo; v < hi; v++ {
			in := inbox[v]
			for i, l := range links[v] {
				ob := outbox[l.from]
				if ob == nil {
					in[i] = nil
					continue
				}
				msg := ob[l.port]
				if msg != nil && dropping && inj.DropMessage(round, v, i) {
					msg = nil
					drops++
				}
				in[i] = msg
				if msg != nil {
					count++
				}
			}
		}
		delivered.Add(int64(count))
		if drops > 0 {
			dropped.Add(int64(drops))
		}
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

		steps.Store(0)
		crashes.Store(0)
		phase(n, compute, ro.computeStats())
		stats.Steps += int(steps.Load())
		stats.CrashSteps += int(crashes.Load())
		ro.computeDone()

		// Validation: a machine that returns a message slice of the wrong
		// length poisons the round. Scan serially so the reported node is
		// the lowest offender regardless of worker count, retire machines
		// that halted this round, and return the (well-defined) partial
		// Stats: this round's compute is counted, its messages are not.
		for v := 0; v < n; v++ {
			if outbox[v] != nil && len(outbox[v]) != g.Degree(v) {
				markHalted()
				err := fmt.Errorf("local: node %d sent %d messages, degree is %d", v, len(outbox[v]), g.Degree(v))
				ro.runEnd(stats, err)
				return stats, err
			}
		}

		delivered.Store(0)
		dropped.Store(0)
		phase(n, deliver, ro.deliverStats())
		roundMsgs := int(delivered.Load())
		stats.MessagesSent += roundMsgs
		stats.MessagesDropped += int(dropped.Load())

		halted := markHalted()
		rs := engine.RoundStats{
			Round:    round,
			Steps:    int(steps.Load()),
			Messages: roundMsgs,
			Active:   numRunning,
			Halted:   halted,
			Dropped:  int(dropped.Load()),
			Crashed:  int(crashes.Load()),
		}
		ro.roundEnd(rs)
		if opts.OnRound != nil {
			opts.OnRound(rs)
		}
	}
	ro.runEnd(stats, nil)
	return stats, nil
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
	computeSec, deliverSec        *obs.Histogram

	// Scratch state of the round in flight.
	phaseStart       time.Time
	computeNS        int64
	computeRS, delRS engine.RunStats
}

// newRunObs resolves the run's collectors; it returns nil when both
// observability channels are off.
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
		ro.deliverSec = m.Histogram("local_deliver_seconds", obs.DurationBuckets)
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

func (ro *runObs) runStart() {} // run_start is emitted by newRunObs

// roundBegin stamps the compute phase's start.
func (ro *runObs) roundBegin() {
	if ro == nil {
		return
	}
	ro.phaseStart = time.Now()
}

// computeStats returns the RunStats slot for the compute phase (nil when
// disabled, selecting the engine's zero-overhead path).
func (ro *runObs) computeStats() *engine.RunStats {
	if ro == nil {
		return nil
	}
	return &ro.computeRS
}

// computeDone closes the compute phase's timing and opens the delivery
// phase's.
func (ro *runObs) computeDone() {
	if ro == nil {
		return
	}
	now := time.Now()
	ro.computeNS = now.Sub(ro.phaseStart).Nanoseconds()
	ro.phaseStart = now
}

// deliverStats returns the RunStats slot for the delivery phase.
func (ro *runObs) deliverStats() *engine.RunStats {
	if ro == nil {
		return nil
	}
	return &ro.delRS
}

// roundEnd folds the finished round into the metric families and emits its
// trace event.
func (ro *runObs) roundEnd(rs engine.RoundStats) {
	if ro == nil {
		return
	}
	deliverNS := time.Since(ro.phaseStart).Nanoseconds()
	ro.rounds.Inc()
	ro.steps.Add(int64(rs.Steps))
	ro.messages.Add(int64(rs.Messages))
	ro.dropped.Add(int64(rs.Dropped))
	ro.crashed.Add(int64(rs.Crashed))
	ro.shards.Add(int64(ro.computeRS.Shards + ro.delRS.Shards))
	ro.stolen.Add(int64(ro.computeRS.Stolen + ro.delRS.Stolen))
	ro.roundMsgs.Observe(float64(rs.Messages))
	ro.roundHalts.Observe(float64(rs.Halted))
	ro.computeSec.Observe(float64(ro.computeNS) / 1e9)
	ro.deliverSec.Observe(float64(deliverNS) / 1e9)
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
			Shards:    ro.computeRS.Shards + ro.delRS.Shards,
			Stolen:    ro.computeRS.Stolen + ro.delRS.Stolen,
			ComputeNS: ro.computeNS,
			DeliverNS: deliverNS,
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
// caller: a phase that small costs less than handing it to the engine pool
// and joining its helpers, twice per round. The crossover, measured on
// cycles at GOMAXPROCS 2 on a 2-vCPU host, inline (Workers 1) against the
// 2-worker shared pool, in ns per unit of round work over 3 runs: a
// flooding machine, which allocates a send slice per round like most
// machines here, ran 35.9–42.7 inline vs 47.9–53.7 pooled at 2048,
// 39.2–58.7 vs 35.7–48.5 at 4096 and 43.1–49.0 vs 37.4–41.2 at 8192; a
// quiet machine, 10.1–10.4 vs 13.0–14.2 at 2048 and 9.4–12.3 vs
// 11.9–13.6 at 8192, breaking even only near 16384. BenchmarkLocalCutoff
// re-measures both sides of the constant.
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

// runInline runs one phase of a round on the caller, as the engine pool
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

// link names the sender behind one inbox slot: the neighbour from, whose
// outbox slot port holds the message.
type link struct{ from, port int }

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
