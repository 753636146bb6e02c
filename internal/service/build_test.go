package service

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
)

// inlineEdgeCases is an inline instance with the shapes the generated
// families never produce: a variable that affects no event (its Events
// stay nil), a conjunction with an empty bad set (its ConjunctionSpec
// entry stays nil), and an event whose variables affect nothing else (an
// isolated node of the dependency graph).
var inlineEdgeCases = []byte(`{"version":1,
 "variables":[{"name":"x","probs":[0.5,0.5]},{"name":"unused","probs":[0.25,0.75]},
  {"probs":[0.2,0.3,0.5]},{"name":"solo","probs":[0.5,0.5]}],
 "events":[{"name":"e0","kind":"conjunction","scope":[0,2],"badSets":[[1],[]]},
  {"name":"e1","kind":"conjunction","scope":[2,0],"badSets":[[2,0,2],[0]]},
  {"kind":"allEqual","scope":[3]}]}`)

// digestGroup is one row of TestBuildDigestsPinned: every spec of the
// group is built and folded into one digest.
type digestGroup struct {
	name  string
	specs []JobSpec
}

// buildDigestGroups covers every buildInstance family at n ∈ {12, 72,
// 1000}, with several seeds, the sinkless degrees 2/3/4 and margins, and
// the inline edge cases. Specs the service rejects (n·degree not divisible
// by 3, no valid configuration) fold their error text instead.
func buildDigestGroups() []digestGroup {
	var groups []digestGroup
	for _, n := range []int{12, 72, 1000} {
		seeds := []uint64{1, 2, 3}
		if n == 1000 {
			seeds = []uint64{211, 7}
		}
		var sk, hy, o3, ws []JobSpec
		for _, seed := range seeds {
			for _, degree := range []int{2, 3, 4} {
				for _, margin := range []float64{0.5, 0.95} {
					sk = append(sk, JobSpec{Family: FamilySinkless, N: n, Degree: degree, Margin: margin, Seed: seed})
				}
			}
			for _, degree := range []int{3, 4} {
				hy = append(hy, JobSpec{Family: FamilyHyper, N: n, Degree: degree, Seed: seed})
				o3 = append(o3, JobSpec{Family: FamilyOrient3, N: n, Degree: degree, Seed: seed})
			}
			hy = append(hy, JobSpec{Family: FamilyHyper, N: n, Slack: 0.3, Seed: seed})
			ws = append(ws, JobSpec{Family: FamilyWeakSplit, N: n, Seed: seed},
				JobSpec{Family: FamilyWeakSplit, N: n, Colors: 8, Seed: seed})
		}
		groups = append(groups,
			digestGroup{name: fmt.Sprintf("sinkless/n%d", n), specs: sk},
			digestGroup{name: fmt.Sprintf("hyper/n%d", n), specs: hy},
			digestGroup{name: fmt.Sprintf("orient3/n%d", n), specs: o3},
			digestGroup{name: fmt.Sprintf("weaksplit/n%d", n), specs: ws})
	}
	groups = append(groups, digestGroup{name: "inline", specs: []JobSpec{
		{Family: FamilyInline, Instance: inlinePathA},
		{Family: FamilyInline, Instance: inlinePathB},
		{Family: FamilyInline, Instance: inlineEdgeCases},
	}})
	return groups
}

// writeInstance renders everything a build determines: the spec.Save
// bytes, names, distributions, scopes, per-variable Events (nil marked),
// event specs (nil bad sets marked), the exact conditional probabilities
// with nothing and with each single scope value fixed, the dependency
// graph's edges, neighbours and incident edges, and the variable
// hypergraph's edges and incidence.
func writeInstance(w io.Writer, inst *model.Instance) {
	if err := spec.Save(w, inst); err != nil {
		fmt.Fprintf(w, "save: %v\n", err)
	}
	for vid := 0; vid < inst.NumVars(); vid++ {
		v := inst.Var(vid)
		fmt.Fprintf(w, "var %d %q %v %v nil=%t\n", v.ID, v.Name, v.Dist.Probs(), v.Events, v.Events == nil)
	}
	a := model.NewAssignment(inst)
	for eid := 0; eid < inst.NumEvents(); eid++ {
		e := inst.Event(eid)
		fmt.Fprintf(w, "event %d %q %v ", e.ID, e.Name, e.Scope)
		switch s := e.Spec.(type) {
		case model.ConjunctionSpec:
			for _, set := range s.BadSets {
				fmt.Fprintf(w, "%v nil=%t ", set, set == nil)
			}
		case model.AllEqualSpec:
			fmt.Fprint(w, "allEqual ")
		default:
			fmt.Fprintf(w, "%T ", s)
		}
		fmt.Fprintf(w, "p=%x:", math.Float64bits(inst.CondProb(eid, a)))
		for _, vid := range e.Scope {
			for val := 0; val < inst.Var(vid).Dist.Size(); val++ {
				fmt.Fprintf(w, " %x", math.Float64bits(inst.CondProbWith(eid, a, vid, val)))
			}
		}
		fmt.Fprintln(w)
	}
	g := inst.DependencyGraph()
	fmt.Fprintf(w, "dep n=%d %v\n", g.N(), g.Edges())
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(w, "%d: %v %v\n", v, g.Neighbors(v), g.IncidentEdges(v))
	}
	h := inst.VariableHypergraph()
	for id := 0; id < h.M(); id++ {
		fmt.Fprintf(w, "hedge %d %v\n", id, h.Edge(id))
	}
	for v := 0; v < h.N(); v++ {
		fmt.Fprintf(w, "inc %d %v\n", v, h.Incident(v))
	}
}

// TestBuildDigestsPinned pins every instance the service builds to the
// bytes the allocation-per-node builders produced: IDs, names, scopes,
// Events, Spec values, probabilities, dependency-graph edge IDs and
// adjacency order, and the variable hypergraph. The digests are literal
// values recorded from those builders; a mismatch means a build changed,
// and the digests are never regenerated to make this test pass.
func TestBuildDigestsPinned(t *testing.T) {
	want := map[string]uint64{
		"sinkless/n12":    0xbbf764596b085bac,
		"hyper/n12":       0x7317e0a53fb131b0,
		"orient3/n12":     0x60029ee1a71138ce,
		"weaksplit/n12":   0x4a02e646022d143b,
		"sinkless/n72":    0xa07421ece0b73df0,
		"hyper/n72":       0x6b7447ae54c82bf4,
		"orient3/n72":     0x0bf152a87249f230,
		"weaksplit/n72":   0x8887c241d3e8bddf,
		"sinkless/n1000":  0xf1fc8728dcbae569,
		"hyper/n1000":     0xec1e6f7703825612,
		"orient3/n1000":   0x652fc61f6bc9cebf,
		"weaksplit/n1000": 0xc31df98bf6a44687,
		"inline":          0x110bd5e69bef0bba,
	}
	for _, g := range buildDigestGroups() {
		h := fnv.New64a()
		for _, js := range g.specs {
			fmt.Fprintf(h, "spec %s n=%d degree=%d margin=%v slack=%v colors=%d seed=%d\n",
				js.Family, js.N, js.Degree, js.Margin, js.Slack, js.Colors, js.Seed)
			norm, err := js.withDefaults()
			if err != nil {
				fmt.Fprintf(h, "rejected: %v\n", err)
				continue
			}
			inst, err := buildInstance(norm)
			if err != nil {
				fmt.Fprintf(h, "build: %v\n", err)
				continue
			}
			writeInstance(h, inst)
		}
		if got := h.Sum64(); got != want[g.name] {
			t.Errorf("%s: digest %#x, want %#x", g.name, got, want[g.name])
		}
	}
}

// sweepBuilds are the two instance shapes of the perfbench threshold
// sweep (n = 1000, sinkless on the cycle under mtpar and on a 3-regular
// graph under seq) plus a small rank-3 instance.
var sweepBuilds = []struct {
	name string
	spec JobSpec
}{
	{"cycle1000", JobSpec{Family: FamilySinkless, N: 1000, Degree: 2, Margin: 0.5, Algorithm: AlgMTPar, Seed: 211}},
	{"rr3_1000", JobSpec{Family: FamilySinkless, N: 1000, Degree: 3, Margin: 0.95, Algorithm: AlgSeq, Seed: 7}},
	{"hyper72", JobSpec{Family: FamilyHyper, N: 72, Degree: 3, Algorithm: AlgDist, Seed: 1}},
}

// BenchmarkBuildInstance times one instance build of each sweep shape;
// run it with -benchmem to see allocations per build.
func BenchmarkBuildInstance(b *testing.B) {
	for _, bc := range sweepBuilds {
		js, err := bc.spec.withDefaults()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := buildInstance(js); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildAllocationBudget bounds the allocations of one n = 1000 sweep
// build: instance construction allocates per instance and per event
// closure, not per node, edge, variable and scope entry.
func TestBuildAllocationBudget(t *testing.T) {
	const budget = 12000
	for _, bc := range sweepBuilds[:2] {
		js, err := bc.spec.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := buildInstance(js); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("%s: %.0f allocations per build, budget %d", bc.name, allocs, budget)
		}
	}
}
