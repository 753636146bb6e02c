package lll

import (
	"context"
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/conjecture"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/lb"
	"repro/internal/local"
	"repro/internal/model"
	"repro/internal/mt"
	"repro/internal/prng"
	"repro/internal/spec"
	"repro/internal/srep"
)

// Core model types.
type (
	// Instance is an immutable LLL instance: variables, events, and the
	// derived dependency graph and variable hypergraph.
	Instance = model.Instance
	// InstanceBuilder accumulates variables and events.
	InstanceBuilder = model.Builder
	// Assignment is a partial assignment of values to variables.
	Assignment = model.Assignment
	// Event is a bad event (scope, predicate, optional closed form).
	Event = model.Event
	// Variable is a discrete random variable of an instance.
	Variable = model.Variable
	// CondProbFunc is an optional closed-form conditional probability.
	CondProbFunc = model.CondProbFunc
	// Distribution is a finite discrete distribution.
	Distribution = dist.Distribution
)

// Solver types.
type (
	// Options configures the deterministic fixers.
	Options = core.Options
	// Strategy selects among feasible values (min-score, first,
	// adversarial).
	Strategy = core.Strategy
	// Result is the outcome of a sequential fixing run.
	Result = core.Result
	// Stats summarizes what a fixing run did.
	Stats = core.Stats
	// DistResult is the outcome of a distributed fixing run.
	DistResult = core.DistResult
	// PStar is the paper's per-edge bookkeeping (property P*).
	PStar = core.PStar
	// LocalOptions configures the LOCAL-model runtime (IDs, round limits,
	// and Workers, a cap on the engine workers that a run too small to
	// share ignores by running inline).
	LocalOptions = local.Options
	// MTResult is the outcome of a Moser-Tardos run.
	MTResult = mt.Result
)

// Topology types.
type (
	// Graph is a simple undirected graph (dependency graphs, topologies).
	Graph = graph.Graph
	// GraphBuilder accumulates edges.
	GraphBuilder = graph.Builder
	// Hypergraph is the variable hypergraph H = (V, F).
	Hypergraph = hypergraph.Hypergraph
	// HypergraphBuilder accumulates hyperedges.
	HypergraphBuilder = hypergraph.Builder
	// Rand is the deterministic PRNG used across the library.
	Rand = prng.Rand
)

// Application types.
type (
	// Sinkless is a (relaxed) sinkless-orientation instance.
	Sinkless = apps.Sinkless
	// HyperSinkless is the rank-3 relaxed sinkless-orientation instance.
	HyperSinkless = apps.HyperSinkless
	// ThreeOrientations is the paper's hypergraph 3-orientation problem.
	ThreeOrientations = apps.ThreeOrientations
	// WeakSplitting is the relaxed weak-splitting instance.
	WeakSplitting = apps.WeakSplitting
)

// Value-choice strategies for Options.Strategy.
const (
	// StrategyMinScore greedily minimizes the resulting increase budget
	// (the default).
	StrategyMinScore = core.StrategyMinScore
	// StrategyFirst takes the first feasible value.
	StrategyFirst = core.StrategyFirst
	// StrategyAdversarial takes the worst feasible value — useful for
	// probing the sharp threshold.
	StrategyAdversarial = core.StrategyAdversarial
)

// NewInstanceBuilder returns an empty LLL instance builder.
func NewInstanceBuilder() *InstanceBuilder { return model.NewBuilder() }

// CombinedInstance is an instance whose same-event-set variables have been
// merged into product variables (the paper's Section 2 / footnote 3
// reformulation).
type CombinedInstance = model.Combined

// Combine merges all variables of inst affecting identical event sets into
// single product variables: the transformed instance has the same events,
// dependency graph, p, d and r, but at most one variable per hyperedge —
// the normal form Theorem 1.1 is stated in. Use Expand on the result to
// translate a solution back to the original variables.
func Combine(inst *Instance) (*CombinedInstance, error) { return model.Combine(inst) }

// NewRand returns a deterministic PRNG seeded with seed.
func NewRand(seed uint64) *Rand { return prng.New(seed) }

// Uniform returns the uniform distribution over k values.
func Uniform(k int) *Distribution { return dist.Uniform(k) }

// NewDistribution returns a distribution with the given probabilities
// (strictly positive, summing to one).
func NewDistribution(probs []float64) (*Distribution, error) { return dist.New(probs) }

// Bernoulli returns a two-valued distribution with Pr[1] = p.
func Bernoulli(p float64) (*Distribution, error) { return dist.Bernoulli(p) }

// Graph constructors.

// NewGraphBuilder returns a builder for a graph on n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// NewCycle returns the cycle C_n (n >= 3).
func NewCycle(n int) *Graph { return graph.Cycle(n) }

// NewPath returns the path on n nodes.
func NewPath(n int) *Graph { return graph.Path(n) }

// NewGrid returns the rows x cols grid graph.
func NewGrid(rows, cols int) *Graph { return graph.Grid(rows, cols) }

// NewTorus returns the rows x cols torus (4-regular).
func NewTorus(rows, cols int) *Graph { return graph.Torus(rows, cols) }

// NewComplete returns the complete graph K_n.
func NewComplete(n int) *Graph { return graph.Complete(n) }

// NewRandomRegular returns a random d-regular simple graph on n nodes.
func NewRandomRegular(n, d int, r *Rand) (*Graph, error) { return graph.RandomRegular(n, d, r) }

// NewRandomTree returns a uniformly random labelled tree on n nodes.
func NewRandomTree(n int, r *Rand) *Graph { return graph.RandomTree(n, r) }

// Hypergraph constructors.

// NewHypergraphBuilder returns a builder for a hypergraph on n nodes.
func NewHypergraphBuilder(n int) *HypergraphBuilder { return hypergraph.NewBuilder(n) }

// NewRandomRegularRank3 returns a random 3-uniform hypergraph where every
// node lies in exactly deg hyperedges (n·deg divisible by 3).
func NewRandomRegularRank3(n, deg int, r *Rand) (*Hypergraph, error) {
	return hypergraph.RandomRegularRank3(n, deg, r)
}

// Application builders.

// NewSinkless builds a (relaxed) sinkless-orientation instance on g with
// slack δ ∈ [0, 1); δ = 0 is the exact-threshold instance.
func NewSinkless(g *Graph, slack float64) (*Sinkless, error) { return apps.NewSinkless(g, slack) }

// NewSinklessWithMargin builds a relaxed sinkless-orientation instance on a
// regular graph with the exact exponential-criterion margin p·2^d.
func NewSinklessWithMargin(g *Graph, margin float64) (*Sinkless, error) {
	return apps.NewSinklessWithMargin(g, margin)
}

// NewSinklessBiased builds a sinkless-orientation instance whose edges point
// at alphaHead[edgeID] with probability alpha and at the other endpoint with
// probability 1-alpha (no third value): every fixing step must commit to a
// real orientation. nil alphaHead defaults to the lower endpoint.
func NewSinklessBiased(g *Graph, alpha float64, alphaHead []int) (*Sinkless, error) {
	return apps.NewSinklessBiased(g, alpha, alphaHead)
}

// NewSinklessBiasedCycle builds the balanced biased family on the cycle
// C_n, with criterion margin exactly 4·alpha·(1-alpha).
func NewSinklessBiasedCycle(n int, alpha float64) (*Sinkless, error) {
	return apps.NewSinklessBiasedCycle(n, alpha)
}

// NewHyperSinkless builds the rank-3 relaxed sinkless-orientation instance.
func NewHyperSinkless(h *Hypergraph, slack float64) (*HyperSinkless, error) {
	return apps.NewHyperSinkless(h, slack)
}

// NewThreeOrientations builds the paper's hypergraph 3-orientation instance
// (every node must avoid being a sink in at least two of three
// orientations).
func NewThreeOrientations(h *Hypergraph) (*ThreeOrientations, error) {
	return apps.NewThreeOrientations(h)
}

// NewWeakSplitting builds the relaxed weak-splitting instance from V-side
// adjacency lists over numU U-nodes with the given palette.
func NewWeakSplitting(vNeighbors [][]int, numU, colors int) (*WeakSplitting, error) {
	return apps.NewWeakSplitting(vNeighbors, numU, colors)
}

// NewRandomBiregular generates V-side adjacency lists for a random
// bipartite graph with nV V-nodes of degree kV and nU U-nodes of degree rU
// (nV·kV must equal nU·rU). It is the standard workload generator for
// NewWeakSplitting.
func NewRandomBiregular(nV, kV, nU, rU int, r *Rand) ([][]int, error) {
	return apps.RandomBiregular(nV, kV, nU, rU, r)
}

// Solvers.

// Solve runs the paper's sequential deterministic fixing process
// (Theorem 1.1 for rank-2 variables, Theorem 1.3 for rank-3) in variable
// order. Under the criterion p < 2^-d the result provably violates no
// event. Use SolveInOrder for a custom (or adversarial) order.
func Solve(inst *Instance, opts Options) (*Result, error) {
	return core.FixSequential(inst, nil, opts)
}

// SolveInOrder is Solve with an explicit fixing order (a permutation of the
// variable identifiers). The guarantee holds for every order.
func SolveInOrder(inst *Instance, order []int, opts Options) (*Result, error) {
	return core.FixSequential(inst, order, opts)
}

// SolveCtx is Solve with cancellation: when ctx becomes done the fixer
// stops between fixing steps and returns the partial Result (variables
// fixed so far) together with an error wrapping ctx.Err(). The distributed
// solvers are cancelled through LocalOptions.Ctx instead.
func SolveCtx(ctx context.Context, inst *Instance, opts Options) (*Result, error) {
	return core.FixSequentialCtx(ctx, inst, nil, opts)
}

// SolveDistributed runs the distributed deterministic algorithm on the
// instance's dependency graph: Corollary 1.2 (edge-colour classes) when
// every variable affects at most two events, Corollary 1.4 (distance-2
// colour classes) otherwise. Round counts are reported in DistResult.
func SolveDistributed(inst *Instance, opts Options, lopts LocalOptions) (*DistResult, error) {
	if inst.Rank() <= 2 {
		return core.FixDistributed2(inst, opts, lopts)
	}
	return core.FixDistributed3(inst, opts, lopts)
}

// MoserTardos runs the sequential Moser-Tardos resampler (the classic
// randomized baseline). maxResamplings = 0 means a large default.
func MoserTardos(inst *Instance, r *Rand, maxResamplings int) (*MTResult, error) {
	return mt.Sequential(inst, r, maxResamplings)
}

// MoserTardosParallel runs the parallel (round-based) Moser-Tardos variant.
func MoserTardosParallel(inst *Instance, r *Rand, maxRounds int) (*MTResult, error) {
	return mt.Parallel(inst, r, maxRounds)
}

// MoserTardosCtx is MoserTardos with cancellation: checked between
// resampling iterations, returning the partial MTResult and an error
// wrapping ctx.Err() once the context is done.
func MoserTardosCtx(ctx context.Context, inst *Instance, r *Rand, maxResamplings int) (*MTResult, error) {
	return mt.SequentialCtx(ctx, inst, r, maxResamplings, mt.Observer{})
}

// MoserTardosParallelCtx is MoserTardosParallel with cancellation: checked
// between rounds, returning the partial MTResult and an error wrapping
// ctx.Err() once the context is done.
func MoserTardosParallelCtx(ctx context.Context, inst *Instance, r *Rand, maxRounds int) (*MTResult, error) {
	return mt.ParallelCtx(ctx, inst, r, maxRounds, mt.Observer{})
}

// MTDistResult is the outcome of a distributed Moser-Tardos run.
type MTDistResult = mt.DistResult

// MoserTardosDistributed runs the parallel Moser-Tardos resampler as an
// actual LOCAL algorithm on the dependency graph (3 rounds per resampling
// iteration, fixed iteration budget; 0 means the default).
func MoserTardosDistributed(inst *Instance, seed uint64, maxIters int, lopts LocalOptions) (*MTDistResult, error) {
	return mt.Distributed(inst, seed, maxIters, lopts)
}

// LowerBoundCertificate is an exact decision about radius-t edge-view
// algorithms for sinkless orientation on small-ID cycles (internal/lb).
type LowerBoundCertificate = lb.Certificate

// DecideLowerBound decides, exactly (via 2-SAT over all radius-t
// orientation rules), whether ANY deterministic radius-t edge-view
// algorithm solves sinkless orientation on all cycles with distinct IDs
// from {0..m-1}. UNSAT results are machine-checked impossibility
// certificates for the problem sitting exactly at the threshold p = 2^-d.
func DecideLowerBound(radius, m int) (*LowerBoundCertificate, error) {
	return lb.Decide(radius, m)
}

// Summary is a one-stop description of an instance's LLL parameters.
type Summary = model.Summary

// Summarize computes the instance's LLL parameter summary (p, d, r, the
// exponential margin p·2^d, the Moser-Tardos value e·p·(d+1), and size
// statistics).
func Summarize(inst *Instance) Summary { return inst.Summarize() }

// CheckExponentialCriterion reports whether p < 2^-d holds for the instance
// and returns the margin p·2^d; the deterministic guarantee requires
// margin < 1.
func CheckExponentialCriterion(inst *Instance) (ok bool, margin float64) {
	return inst.ExponentialCriterion()
}

// CheckLocalExponentialCriterion reports the per-event form of the
// criterion — Pr[E_v]·2^(d_v) < 1 for every event, with d_v the event's own
// dependency degree. This is the inequality the proofs actually use; it is
// weaker than the symmetric p·2^d < 1 on irregular instances, and the
// fixers' guarantee holds under it.
func CheckLocalExponentialCriterion(inst *Instance) (ok bool, maxMargin float64) {
	return inst.LocalExponentialCriterion()
}

// RandomConjunctionInstance is the margin-calibrated random conjunction
// stress family (arbitrary bad tuples, exact per-event margins).
type RandomConjunctionInstance = apps.RandomConjunction

// NewRandomConjunction builds the stress family over hypergraph h: every
// event's probability is exactly margin·2^-d_v for its own dependency
// degree.
func NewRandomConjunction(h *Hypergraph, values int, margin float64, r *Rand) (*RandomConjunctionInstance, error) {
	return apps.NewRandomConjunction(h, values, margin, r)
}

// Representable-triple geometry (Section 3.2 of the paper).

// SurfaceF evaluates the boundary surface f(a, b) of the set of
// representable triples (Lemma 3.5).
func SurfaceF(a, b float64) float64 { return srep.F(a, b) }

// IsRepresentable reports whether the triple (a, b, c) is representable
// (Definition 3.3), within the library's default tolerance.
func IsRepresentable(a, b, c float64) bool {
	return srep.IsRepresentable(a, b, c, srep.DefaultTol)
}

// DecomposeTriple returns a witness (the six edge values of
// Definition 3.3) for a representable triple.
func DecomposeTriple(a, b, c float64) (srep.Witness, error) { return srep.Decompose(a, b, c) }

// Experiments re-exports: the harness behind cmd/ and the benchmarks.

// ExperimentSizes tunes experiment workloads.
type ExperimentSizes = exp.Sizes

// ExperimentTable is one rendered experiment result.
type ExperimentTable = exp.Table

// RunAllExperiments regenerates every figure and table of the paper
// (F1, F2, T1-T8 in DESIGN.md).
func RunAllExperiments(seed uint64, sz ExperimentSizes) ([]*ExperimentTable, error) {
	return exp.All(seed, sz)
}

// Conjecture 1.5 exploration (rank r >= 4; empirical, not proven).

// ConjectureResult is the outcome of a generalized (any-rank) sequential
// fixing run.
type ConjectureResult = conjecture.Result

// ConjectureDistResult is the outcome of a generalized distributed run.
type ConjectureDistResult = conjecture.DistResult

// SolveAnyRank runs the generalized sequential fixer of internal/conjecture
// on an instance of ANY rank: the Theorem 1.3 machinery with the closed-form
// representability test replaced by a sound numeric feasibility search.
// Strictly below the threshold, Conjecture 1.5 predicts it always succeeds;
// inspect Stats.Infeasible and Stats.FinalViolatedEvents.
func SolveAnyRank(inst *Instance, order []int) (*ConjectureResult, error) {
	return conjecture.FixSequentialR(inst, order)
}

// SolveDistributedAnyRank runs the distributed generalized fixer (the
// algorithm Conjecture 1.5 claims exists for every rank).
func SolveDistributedAnyRank(inst *Instance, lopts LocalOptions) (*ConjectureDistResult, error) {
	return conjecture.FixDistributedR(inst, lopts)
}

// NewRandomRegularUniform returns a random k-uniform hypergraph where every
// node lies in exactly deg hyperedges (n·deg divisible by k).
func NewRandomRegularUniform(n, deg, k int, r *Rand) (*Hypergraph, error) {
	return hypergraph.RandomRegularUniform(n, deg, k, r)
}

// NewHyperSinklessUniform builds the relaxed sinkless-orientation instance
// on a k-uniform hypergraph (rank-k variables; k >= 4 is the Conjecture 1.5
// regime).
func NewHyperSinklessUniform(h *Hypergraph, k int, slack float64) (*HyperSinkless, error) {
	return apps.NewHyperSinklessUniform(h, k, slack)
}

// Adaptive adversaries: the theorems hold even when an adversary chooses
// the next variable to fix AFTER seeing everything fixed so far.

// AdversaryState is the read-only view handed to an adaptive adversary.
type AdversaryState = core.AdversaryState

// Adversary picks the next variable to fix.
type Adversary = core.Adversary

// SolveAdaptive runs the sequential fixer with the order chosen step by
// step by the adversary; the below-threshold guarantee is unchanged.
func SolveAdaptive(inst *Instance, adversary Adversary, opts Options) (*Result, error) {
	return core.FixSequentialAdaptive(inst, adversary, opts)
}

// GreedyAdversary is the built-in worst-case-seeking adaptive adversary.
func GreedyAdversary(state *AdversaryState) int { return core.GreedyAdversary(state) }

// Trace records the individual decisions of a sequential fixing run (pass
// a fresh &Trace{} in Options.Trace); it exports to CSV.
type Trace = core.Trace

// TraceStep is one recorded fixing decision.
type TraceStep = core.TraceStep

// SaveInstance writes inst as portable JSON. Only instances whose events
// were built by the helper families (conjunction, all-equal) — which
// includes every application builder in this library — are serializable.
func SaveInstance(w io.Writer, inst *Instance) error { return spec.Save(w, inst) }

// LoadInstance reads a JSON instance description written by SaveInstance.
func LoadInstance(r io.Reader) (*Instance, error) { return spec.Load(r) }

// Validate sanity-checks an instance for the fixers: rank at most 3 and a
// satisfied exponential criterion. It returns a descriptive error naming
// the failing condition, or nil.
func Validate(inst *Instance) error {
	if r := inst.Rank(); r > 3 {
		return fmt.Errorf("lll: rank %d > 3: the paper's processes cover r <= 3 (r > 3 is Conjecture 1.5)", r)
	}
	if ok, margin := inst.ExponentialCriterion(); !ok {
		return fmt.Errorf("lll: criterion p < 2^-d violated: p*2^d = %v >= 1 (no deterministic guarantee; the fixers still run)", margin)
	}
	return nil
}
