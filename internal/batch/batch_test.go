package batch_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/model"
	"repro/internal/mt"
	"repro/internal/prng"
)

// testInstances builds a mixed bag of below-threshold instances of
// different families and sizes, so the packed runs exercise uneven segment
// lengths and staggered per-instance termination.
func testInstances(t *testing.T) []*model.Instance {
	t.Helper()
	var insts []*model.Instance
	for _, n := range []int{6, 12, 30} {
		s, err := apps.NewSinklessWithMargin(graph.Cycle(n), 0.9)
		if err != nil {
			t.Fatalf("sinkless cycle %d: %v", n, err)
		}
		insts = append(insts, s.Instance)
	}
	h, err := hypergraph.RandomRegularRank3(18, 2, prng.New(7))
	if err != nil {
		t.Fatalf("hypergraph: %v", err)
	}
	hs, err := apps.NewHyperSinkless(h, 0.5)
	if err != nil {
		t.Fatalf("hyper sinkless: %v", err)
	}
	return append(insts, hs.Instance)
}

func testSeeds(n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i)*0x9e37 + 1
	}
	return seeds
}

// workerCounts are the pool sizes every equivalence claim is checked under
// (the determinism contract: worker count never changes results).
func workerCounts() []int {
	counts := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 {
		counts = append(counts, p)
	}
	return counts
}

func sameValues(t *testing.T, label string, want, got *model.Assignment) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil assignment", label)
	}
	wv, wf := want.Values()
	gv, gf := got.Values()
	if len(wv) != len(gv) {
		t.Fatalf("%s: %d values, want %d", label, len(gv), len(wv))
	}
	for i := range wv {
		if wf[i] != gf[i] || (wf[i] && wv[i] != gv[i]) {
			t.Fatalf("%s: variable %d = (%d,%v), want (%d,%v)", label, i, gv[i], gf[i], wv[i], wf[i])
		}
	}
}

func TestRunParallelMTMatchesSolo(t *testing.T) {
	insts := testInstances(t)
	seeds := testSeeds(len(insts))
	const maxRounds = 500

	solo := make([]*mt.Result, len(insts))
	for k, inst := range insts {
		res, err := mt.Parallel(inst, prng.New(seeds[k]), maxRounds)
		if err != nil {
			t.Fatalf("solo parallel %d: %v", k, err)
		}
		if !res.Satisfied {
			t.Fatalf("solo parallel %d not satisfied (test instances should converge)", k)
		}
		solo[k] = res
	}

	p := batch.Pack(insts)
	for _, w := range workerCounts() {
		pool := engine.New(w)
		results, err := batch.RunParallelMT(p, seeds, batch.Options{Pool: pool, MaxRounds: maxRounds})
		pool.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for k, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d instance %d: %v", w, k, r.Err)
			}
			if r.Satisfied != solo[k].Satisfied || r.Rounds != solo[k].Rounds || r.Resamplings != solo[k].Resamplings {
				t.Fatalf("workers=%d instance %d: (sat=%v rounds=%d res=%d), solo (sat=%v rounds=%d res=%d)",
					w, k, r.Satisfied, r.Rounds, r.Resamplings,
					solo[k].Satisfied, solo[k].Rounds, solo[k].Resamplings)
			}
			sameValues(t, "parallel assignment", solo[k].Assignment, r.Assignment)
		}
	}
}

// alwaysViolated is a one-variable instance whose single event always
// occurs, forcing the budget-exhaustion path of the packed runners.
func alwaysViolated(t *testing.T) *model.Instance {
	t.Helper()
	b := model.NewBuilder()
	v := b.AddVariable(dist.Uniform(2), "x")
	b.AddEvent([]int{v}, func([]int) bool { return true }, nil, "always")
	inst, err := b.Build()
	if err != nil {
		t.Fatalf("building always-violated instance: %v", err)
	}
	return inst
}

// TestBudgetExhaustionMatchesSolo packs a convergent instance next to an
// unsatisfiable one so that one instance finishes early while the other
// runs its budget out — both must still match their solo runs exactly.
func TestBudgetExhaustionMatchesSolo(t *testing.T) {
	s, err := apps.NewSinklessWithMargin(graph.Cycle(12), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	insts := []*model.Instance{alwaysViolated(t), s.Instance}
	seeds := []uint64{3, 4}

	t.Run("parallel", func(t *testing.T) {
		const maxRounds = 7
		solo := make([]*mt.Result, len(insts))
		for k, inst := range insts {
			solo[k], err = mt.Parallel(inst, prng.New(seeds[k]), maxRounds)
			if err != nil {
				t.Fatal(err)
			}
		}
		if solo[0].Satisfied {
			t.Fatal("always-violated instance reported satisfied")
		}
		results, err := batch.RunParallelMT(batch.Pack(insts), seeds, batch.Options{MaxRounds: maxRounds})
		if err != nil {
			t.Fatal(err)
		}
		for k, r := range results {
			if r.Satisfied != solo[k].Satisfied || r.Rounds != solo[k].Rounds || r.Resamplings != solo[k].Resamplings {
				t.Fatalf("instance %d: (sat=%v rounds=%d res=%d), solo (sat=%v rounds=%d res=%d)",
					k, r.Satisfied, r.Rounds, r.Resamplings,
					solo[k].Satisfied, solo[k].Rounds, solo[k].Resamplings)
			}
			sameValues(t, "assignment", solo[k].Assignment, r.Assignment)
		}
		if results[0].ViolatedEvents != 1 {
			t.Fatalf("exhausted instance reports %d violated events, want 1", results[0].ViolatedEvents)
		}
	})
}

func TestRunFixSequentialMatchesSolo(t *testing.T) {
	insts := testInstances(t)

	solo := make([]*core.Result, len(insts))
	for k, inst := range insts {
		res, err := core.FixSequential(inst, nil, core.Options{})
		if err != nil {
			t.Fatalf("solo fixer %d: %v", k, err)
		}
		solo[k] = res
	}

	p := batch.Pack(insts)
	for _, w := range workerCounts() {
		pool := engine.New(w)
		results, err := batch.RunFixSequential(p, batch.Options{Pool: pool})
		pool.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for k, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d instance %d: %v", w, k, r.Err)
			}
			if !r.Satisfied || r.ViolatedEvents != 0 {
				t.Fatalf("workers=%d instance %d: satisfied=%v violated=%d", w, k, r.Satisfied, r.ViolatedEvents)
			}
			if r.VarsFixed != solo[k].Stats.VarsFixed {
				t.Fatalf("workers=%d instance %d: %d vars fixed, solo %d", w, k, r.VarsFixed, solo[k].Stats.VarsFixed)
			}
			sameValues(t, "fixer assignment", solo[k].Assignment, r.Assignment)
		}
	}
}

func TestRunFixSequentialRejectsTraceOptions(t *testing.T) {
	p := batch.Pack(testInstances(t))
	_, err := batch.RunFixSequential(p, batch.Options{Core: core.Options{Trace: &core.Trace{}}})
	if err == nil {
		t.Fatal("expected an error for Core.Trace in a packed run")
	}
}

func TestSeedCountMismatch(t *testing.T) {
	p := batch.Pack(testInstances(t))
	if _, err := batch.RunParallelMT(p, []uint64{1}, batch.Options{}); err == nil {
		t.Fatal("expected an error for a seed/instance count mismatch")
	}
}

func TestCancellationReturnsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	insts := []*model.Instance{alwaysViolated(t)}
	results, err := batch.RunParallelMT(batch.Pack(insts), []uint64{1}, batch.Options{Ctx: ctx})
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	if len(results) != 1 || results[0].Assignment == nil {
		t.Fatalf("cancellation should keep the partial per-instance state, got %+v", results)
	}
	if results[0].Satisfied {
		t.Fatal("cancelled instance must not report satisfied")
	}
}

func TestPackAccessors(t *testing.T) {
	insts := testInstances(t)
	p := batch.Pack(insts)
	if p.Len() != len(insts) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(insts))
	}
	off := p.EventOffsets()
	if off[0] != 0 {
		t.Fatalf("EventOffsets[0] = %d, want 0", off[0])
	}
	events, vars := 0, 0
	for k, inst := range insts {
		if p.Instance(k) != inst {
			t.Fatalf("Instance(%d) is not the packed input", k)
		}
		if off[k+1]-off[k] != inst.NumEvents() {
			t.Fatalf("segment %d spans %d events, want %d", k, off[k+1]-off[k], inst.NumEvents())
		}
		events += inst.NumEvents()
		vars += inst.NumVars()
	}
	if p.TotalEvents() != events {
		t.Fatalf("TotalEvents = %d, want %d", p.TotalEvents(), events)
	}
	if p.TotalVars() != vars {
		t.Fatalf("TotalVars = %d, want %d", p.TotalVars(), vars)
	}
}
