package batch_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/model"
	"repro/internal/prng"
)

var updateGolden = flag.Bool("update", false, "rewrite golden tables under testdata")

// goldenWorkload is the fixed instance set every algorithm runs through the
// packed path. Sizes are deliberately small and mixed: the golden pins the
// exact per-instance counters AND the exact final assignments (as a hash),
// so any change to draw order, scan order or packing layout shows up as a
// byte diff.
func goldenWorkload(t *testing.T) ([]*model.Instance, []string, []uint64) {
	t.Helper()
	var insts []*model.Instance
	var names []string
	for _, n := range []int{8, 14, 20} {
		s, err := apps.NewSinklessWithMargin(graph.Cycle(n), 0.9)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, s.Instance)
		names = append(names, fmt.Sprintf("cycle-%d", n))
	}
	h, err := hypergraph.RandomRegularRank3(12, 2, prng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	hs, err := apps.NewHyperSinkless(h, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	insts = append(insts, hs.Instance)
	names = append(names, "hyper-12")

	seeds := make([]uint64, len(insts))
	for i := range seeds {
		seeds[i] = uint64(1000 + 17*i)
	}
	return insts, names, seeds
}

// assignmentHash folds a complete assignment into one stable value so the
// golden table pins the exact bits without listing every variable.
func assignmentHash(a *model.Assignment) uint64 {
	if a == nil {
		return 0
	}
	values, fixed := a.Values()
	h := uint64(len(values))
	for i, v := range values {
		x := uint64(v)
		if !fixed[i] {
			x = ^uint64(0)
		}
		h = prng.Mix64(h*0x9E3779B97F4A7C15 + x)
	}
	return h
}

// renderBatchTable runs the golden workload through both packed runners on
// the given pool and renders one CSV.
func renderBatchTable(t *testing.T, pool *engine.Pool) []byte {
	t.Helper()
	insts, names, seeds := goldenWorkload(t)
	p := batch.Pack(insts)
	opts := batch.Options{Pool: pool, MaxRounds: 500}

	var buf bytes.Buffer
	buf.WriteString("alg,instance,seed,satisfied,violated,rounds,resamplings,vars_fixed,assignment\n")
	emit := func(alg string, k int, r batch.Result) {
		if r.Err != nil {
			t.Fatalf("%s %s: %v", alg, names[k], r.Err)
		}
		fmt.Fprintf(&buf, "%s,%s,%d,%v,%d,%d,%d,%d,%016x\n",
			alg, names[k], seeds[k], r.Satisfied, r.ViolatedEvents,
			r.Rounds, r.Resamplings, r.VarsFixed, assignmentHash(r.Assignment))
	}

	par, err := batch.RunParallelMT(p, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range par {
		emit("mt-parallel", k, r)
	}
	fix, err := batch.RunFixSequential(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range fix {
		emit("fix-sequential", k, r)
	}
	return buf.Bytes()
}

// TestGoldenBatchTable re-asserts the repo's golden-table discipline
// through the batched path: the packed runs of a fixed workload reproduce
// checked-in bytes exactly, at Workers 1, 2 and GOMAXPROCS.
func TestGoldenBatchTable(t *testing.T) {
	pool1 := engine.New(1)
	got := renderBatchTable(t, pool1)
	pool1.Close()

	path := filepath.Join("testdata", "batch.golden.csv")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Workers=1 output deviates from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}

	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		pool := engine.New(workers)
		out := renderBatchTable(t, pool)
		pool.Close()
		if !bytes.Equal(out, got) {
			t.Errorf("Workers=%d output differs from Workers=1:\ngot:\n%s\nwant:\n%s", workers, out, got)
		}
	}
}
