package batch

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/graph"
	"repro/internal/model"
)

// benchSinkless builds count independent sinkless instances on cycles of n
// nodes — the T2-sized small-instance workload batching is for.
func benchSinkless(b *testing.B, count, n int) []*model.Instance {
	b.Helper()
	insts := make([]*model.Instance, count)
	for i := range insts {
		s, err := apps.NewSinklessWithMargin(graph.Cycle(n), 0.9)
		if err != nil {
			b.Fatal(err)
		}
		insts[i] = s.Instance
	}
	return insts
}

func benchSeeds(count int) []uint64 {
	seeds := make([]uint64, count)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// BenchmarkPackedBatch measures the packing amortization directly at
// n = 1000: "one" is a single instance, "solo-64" runs 64 distinct
// instances as 64 separate engine runs (as the service runs a batch's
// distinct instances), "packed-64" runs the same 64 instances as one packed
// run. Packing pays the per-round pool dispatch and termination scan once
// per packed round instead of once per instance per round.
func BenchmarkPackedBatch(b *testing.B) {
	const n = 1000
	check := func(b *testing.B, results []Result, err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		for k, res := range results {
			if !res.Satisfied {
				b.Fatalf("instance %d unsatisfied", k)
			}
		}
	}

	b.Run("one", func(b *testing.B) {
		p := Pack(benchSinkless(b, 1, n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results, err := RunParallelMT(p, benchSeeds(1), Options{})
			check(b, results, err)
		}
	})
	b.Run("solo-64", func(b *testing.B) {
		insts := benchSinkless(b, 64, n)
		seeds := benchSeeds(64)
		packs := make([]*Packed, len(insts))
		for i, inst := range insts {
			packs[i] = Pack([]*model.Instance{inst})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k, p := range packs {
				results, err := RunParallelMT(p, seeds[k:k+1], Options{})
				check(b, results, err)
			}
		}
	})
	b.Run("packed-64", func(b *testing.B) {
		p := Pack(benchSinkless(b, 64, n))
		seeds := benchSeeds(64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results, err := RunParallelMT(p, seeds, Options{})
			check(b, results, err)
		}
	})
}
