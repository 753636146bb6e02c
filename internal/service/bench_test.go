package service

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// benchService builds a real service sized for benchmark traffic.
func benchService(b *testing.B, cacheSize int) *Service {
	b.Helper()
	s := New(Config{QueueCap: 256, MaxInFlight: 4, Metrics: obs.NewRegistry(), CacheSize: cacheSize})
	b.Cleanup(func() { s.Shutdown(context.Background()) })
	return s
}

// benchRun submits one job and blocks on the event stream (no polling
// sleeps: the wait rides the job's wake-up channel) until it is terminal.
func benchRun(b *testing.B, s *Service, js JobSpec) *Summary {
	b.Helper()
	j, err := s.Submit(js)
	if err != nil {
		b.Fatal(err)
	}
	from := 0
	for {
		_, n, more, state := j.EventsSince(from)
		from += n
		switch state {
		case StateDone:
			v := j.View()
			if v.Result == nil {
				b.Fatalf("done job %s has no result", j.ID)
			}
			return v.Result
		case StateFailed, StateCancelled:
			b.Fatalf("job %s ended %s: %s", j.ID, state, j.View().Error)
		}
		if more != nil {
			<-more
		}
	}
}

// BenchmarkServiceRepeatedJobs measures the repeated-identical-jobs
// throughput the result cache exists for. "cold" changes the seed every
// submission, so every job misses and solves; "warm" resubmits the
// identical spec, so every job after the first is served from the cache.
// The acceptance bar for the serving path is warm ≥ 10× cold.
func BenchmarkServiceRepeatedJobs(b *testing.B) {
	spec := JobSpec{Family: FamilySinkless, N: 1024, Algorithm: AlgMTPar, Cache: true}

	b.Run("cold", func(b *testing.B) {
		s := benchService(b, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			js := spec
			js.Seed = uint64(i + 1)
			if sum := benchRun(b, s, js); sum.CacheHit {
				b.Fatal("cold job reported a cache hit")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := benchService(b, 4096)
		js := spec
		js.Seed = 1
		benchRun(b, s, js) // populate the entry outside the timer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sum := benchRun(b, s, js); !sum.CacheHit {
				b.Fatal("warm job missed the cache")
			}
		}
	})
}

// BenchmarkServiceBatch64 is the batch acceptance measurement: a
// 64-instance batch of identical specs (the threshold-sweep shape that
// motivates batching) against a single solo job of the same spec. In-batch
// deduplication solves the instance once and serves the other 63 as hits,
// so the batch must complete in well under 2× the solo wall time. The seed
// advances every iteration, so every iteration pays one real solve.
func BenchmarkServiceBatch64(b *testing.B) {
	spec := JobSpec{Family: FamilySinkless, N: 1000, Algorithm: AlgMTPar, Cache: true}

	b.Run("one", func(b *testing.B) {
		s := benchService(b, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			js := spec
			js.Seed = uint64(i + 1)
			benchRun(b, s, js)
		}
	})
	b.Run("batch-64", func(b *testing.B) {
		s := benchService(b, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			js := spec
			js.Seed = uint64(i + 1)
			batch := JobSpec{Cache: true, Batch: make([]JobSpec, 64)}
			for k := range batch.Batch {
				batch.Batch[k] = js
			}
			sum := benchRun(b, s, batch)
			if len(sum.Instances) != 64 {
				b.Fatalf("batch returned %d instances", len(sum.Instances))
			}
			hits := 0
			for _, is := range sum.Instances {
				if is.CacheHit {
					hits++
				}
			}
			if hits != 63 {
				b.Fatalf("batch deduplicated %d of 63 duplicate instances", hits)
			}
		}
	})
}
