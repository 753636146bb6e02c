package batch_test

import (
	"testing"

	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/kernel"
)

// The batch layer adopts the compiled kernels all-or-nothing per packed
// batch: when every instance compiles, the violated scan runs word-parallel
// over one shared bitset in packed word space, and resampling writes through
// to the packed mirrors. The test below pits that path against the generic
// one (kernel.SetEnabled(false)) and demands identical per-instance results —
// same values, same counters — at every worker count.

// runBoth executes fn with kernels enabled and disabled and returns both
// result sets.
func runBoth(t *testing.T, fn func(t *testing.T) []batch.Result) (on, off []batch.Result) {
	t.Helper()
	prev := kernel.SetEnabled(true)
	defer kernel.SetEnabled(prev)
	on = fn(t)
	kernel.SetEnabled(false)
	off = fn(t)
	return on, off
}

func assertSameBatch(t *testing.T, label string, on, off []batch.Result) {
	t.Helper()
	if len(on) != len(off) {
		t.Fatalf("%s: result counts diverge: %d vs %d", label, len(on), len(off))
	}
	for k := range on {
		a, b := on[k], off[k]
		if a.Err != nil || b.Err != nil {
			t.Fatalf("%s[%d]: errors %v / %v", label, k, a.Err, b.Err)
		}
		if a.Satisfied != b.Satisfied || a.Resamplings != b.Resamplings || a.Rounds != b.Rounds {
			t.Fatalf("%s[%d]: counters diverge: (sat=%v res=%d rounds=%d) vs (sat=%v res=%d rounds=%d)",
				label, k, a.Satisfied, a.Resamplings, a.Rounds, b.Satisfied, b.Resamplings, b.Rounds)
		}
		sameValues(t, label, b.Assignment, a.Assignment)
	}
}

// TestBatchParallelKernelMatchesGeneric pins the packed parallel-rounds
// resampler: the kernel word-space scan plus bitset local-minimum selection
// reproduces the generic path bit for bit at every worker count.
func TestBatchParallelKernelMatchesGeneric(t *testing.T) {
	insts := testInstances(t)
	seeds := testSeeds(len(insts))
	for _, workers := range workerCounts() {
		pool := engine.New(workers)
		on, off := runBoth(t, func(t *testing.T) []batch.Result {
			results, err := batch.RunParallelMT(batch.Pack(insts), seeds, batch.Options{Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			return results
		})
		pool.Close()
		assertSameBatch(t, "parallel", on, off)
	}
}
