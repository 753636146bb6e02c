// Benchmarks regenerating the paper's figures and the theorem-shaped
// experiment tables — one benchmark per artefact in the DESIGN.md
// experiment index (F1, F2, T1-T8). Each benchmark runs the corresponding
// experiment end to end and reports domain metrics via ReportMetric, so
// `go test -bench=. -benchmem` doubles as the reproduction harness
// (cmd/benchharness prints the full tables).
package lll_test

import (
	"runtime"
	"sync"
	"testing"

	lll "repro"
	"repro/internal/benchset"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/kernel"
	"repro/internal/local"
	"repro/internal/model"
	"repro/internal/prng"
)

// benchSizes keeps per-iteration work small enough for stable timings.
var benchSizes = exp.Sizes{Scale: 0.5, Trials: 3}

func runExperiment(b *testing.B, run func() (*exp.Table, error)) *exp.Table {
	b.Helper()
	var tbl *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

func BenchmarkF1_SrepSurface(b *testing.B) {
	tbl := runExperiment(b, func() (*exp.Table, error) {
		return exp.F1Surface(0.25, 5000, 1)
	})
	b.ReportMetric(float64(len(tbl.Rows)), "grid-rows")
}

func BenchmarkF2_WitnessDecompose(b *testing.B) {
	runExperiment(b, exp.F2Witness)
}

func BenchmarkT1_Rank2Fixer(b *testing.B) {
	tbl := runExperiment(b, func() (*exp.Table, error) {
		return exp.T1Rank2(uint64(b.N), benchSizes)
	})
	b.ReportMetric(float64(len(tbl.Rows)), "workloads")
}

func BenchmarkT2_DistributedRank2(b *testing.B) {
	runExperiment(b, func() (*exp.Table, error) {
		return exp.T2DistributedRank2(uint64(b.N), exp.Sizes{Scale: 0.25, Trials: 2})
	})
}

func BenchmarkT3_Rank3Fixer(b *testing.B) {
	runExperiment(b, func() (*exp.Table, error) {
		return exp.T3Rank3(uint64(b.N), benchSizes)
	})
}

func BenchmarkT4_DistributedRank3(b *testing.B) {
	runExperiment(b, func() (*exp.Table, error) {
		return exp.T4DistributedRank3(uint64(b.N), exp.Sizes{Scale: 0.5, Trials: 1})
	})
}

func BenchmarkT5_Threshold(b *testing.B) {
	runExperiment(b, func() (*exp.Table, error) {
		return exp.T5Threshold(uint64(b.N), exp.Sizes{Scale: 0.5, Trials: 50})
	})
}

func BenchmarkT6_MoserTardos(b *testing.B) {
	runExperiment(b, func() (*exp.Table, error) {
		return exp.T6MoserTardos(uint64(b.N), exp.Sizes{Scale: 0.5, Trials: 3})
	})
}

func BenchmarkT7_Applications(b *testing.B) {
	runExperiment(b, func() (*exp.Table, error) {
		return exp.T7Applications(uint64(b.N), benchSizes)
	})
}

func BenchmarkT8_Ablations(b *testing.B) {
	runExperiment(b, func() (*exp.Table, error) {
		return exp.T8Ablations(uint64(b.N), benchSizes)
	})
}

func BenchmarkT9_Conjecture(b *testing.B) {
	runExperiment(b, func() (*exp.Table, error) {
		return exp.T9Conjecture(uint64(b.N), exp.Sizes{Scale: 0.6, Trials: 2})
	})
}

func BenchmarkT10_Spectrum(b *testing.B) {
	runExperiment(b, func() (*exp.Table, error) {
		return exp.T10Spectrum(uint64(b.N), exp.Sizes{Scale: 0.6, Trials: 3})
	})
}

func BenchmarkT11_LowerBoundCertificates(b *testing.B) {
	runExperiment(b, func() (*exp.Table, error) {
		return exp.T11LowerBound(uint64(b.N), exp.Sizes{Trials: 10})
	})
}

// Engine benchmarks: the sharded worker-pool round loop vs the original
// goroutine-per-node simulation, at simulator scale (n = 100k nodes). Run
// with `-cpu 1,2,4` to see the scaling: the pool picks up GOMAXPROCS
// workers per -cpu setting. Metrics: rounds/sec and allocs/round (the pool
// reuses its buffers across rounds; the per-node variant pays one goroutine
// plus a flag slice per round).

// engineBenchRounds is the number of synchronous rounds simulated per
// benchmark iteration.
const engineBenchRounds = 4

// benchComputePhase is the per-node compute work of one simulated round: a
// few arithmetic ops and an index-addressed write, the same shape as a
// lightweight LOCAL machine step.
func benchComputePhase(v, round int, out []uint64) {
	x := uint64(v)*0x9e3779b97f4a7c15 + uint64(round)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	out[v] = x
}

// reportRoundMetrics converts raw benchmark counters into the domain
// metrics the ISSUE tracks: rounds/sec and allocs/round.
func reportRoundMetrics(b *testing.B, totalRounds int, m0, m1 *runtime.MemStats) {
	b.ReportMetric(float64(totalRounds)/b.Elapsed().Seconds(), "rounds/sec")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(totalRounds), "allocs/round")
}

func BenchmarkEngineRounds(b *testing.B) {
	const n = benchset.LargeN
	b.Run("pool", func(b *testing.B) {
		pool := engine.New(runtime.GOMAXPROCS(0))
		defer pool.Close()
		out := make([]uint64, n)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for round := 1; round <= engineBenchRounds; round++ {
				pool.ForEachShard(n, func(lo, hi int) {
					for v := lo; v < hi; v++ {
						benchComputePhase(v, round, out)
					}
				})
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		reportRoundMetrics(b, b.N*engineBenchRounds, &m0, &m1)
	})
	b.Run("goroutine-per-node", func(b *testing.B) {
		// The seed simulator's compute phase: one fresh goroutine per node
		// per round, joined by a WaitGroup barrier.
		out := make([]uint64, n)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for round := 1; round <= engineBenchRounds; round++ {
				var wg sync.WaitGroup
				for v := 0; v < n; v++ {
					wg.Add(1)
					go func(v int) {
						defer wg.Done()
						benchComputePhase(v, round, out)
					}(v)
				}
				wg.Wait()
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		reportRoundMetrics(b, b.N*engineBenchRounds, &m0, &m1)
	})
}

// floodProbe is a minimal LOCAL machine (min-ID flooding with a fixed round
// budget) used to benchmark the full runtime — stepping, length checks and
// message writes, in one pass per round — at large n.
type floodProbe struct {
	info   local.NodeInfo
	min    uint64
	budget int
}

func (m *floodProbe) Init(info local.NodeInfo) {
	m.info = info
	m.min = info.ID
}

func (m *floodProbe) Round(round int, recv []local.Message) ([]local.Message, bool) {
	for _, msg := range recv {
		if v, ok := msg.(uint64); ok && v < m.min {
			m.min = v
		}
	}
	send := make([]local.Message, m.info.Degree())
	for i := range send {
		send[i] = m.min
	}
	return send, round >= m.budget
}

// BenchmarkLocalSinkless100k runs the LOCAL runtime end to end on the
// dependency graph of an n = 100k sinkless-orientation instance (a cycle at
// the paper's threshold witness), with a fixed round budget per iteration.
func BenchmarkLocalSinkless100k(b *testing.B) {
	inst, err := benchset.Sinkless100k()
	if err != nil {
		b.Fatal(err)
	}
	g := inst.DependencyGraph()
	const budget = 8
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	totalRounds := 0
	for i := 0; i < b.N; i++ {
		stats, err := local.Run(g, func(v int) local.Machine {
			return &floodProbe{budget: budget}
		}, local.Options{IDSeed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		totalRounds += stats.Rounds
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	reportRoundMetrics(b, totalRounds, &m0, &m1)
}

// BenchmarkViolatedScan100k measures one full violated-event scan — the
// per-round product term of every resampler — on the shared n = 100k
// instance, under both paths: "generic" is the per-event
// Instance.Violated walk the resamplers used before the kernels (one
// closure dispatch and scope gather per event), "kernel" is the compiled
// CSR/bitset scan (word-parallel over the engine pool). One iteration =
// one scan = one round, so rounds/sec and allocs/round compare directly;
// cmd/benchgate pins kernel >= 2x generic rounds/sec or <= 0.5x
// allocs/round on this pair.
func BenchmarkViolatedScan100k(b *testing.B) {
	inst, err := benchset.Sinkless100k()
	if err != nil {
		b.Fatal(err)
	}
	// One fixed complete assignment, shared by both paths.
	a := model.NewAssignment(inst)
	r := prng.New(1)
	for v := 0; v < inst.NumVars(); v++ {
		a.Fix(v, inst.Var(v).Dist.Sample(r))
	}

	b.Run("generic", func(b *testing.B) {
		violated := make([]int, 0, inst.NumEvents())
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			violated = violated[:0]
			for e := 0; e < inst.NumEvents(); e++ {
				bad, err := inst.Violated(e, a)
				if err != nil {
					b.Fatal(err)
				}
				if bad {
					violated = append(violated, e)
				}
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		reportRoundMetrics(b, b.N, &m0, &m1)
	})
	b.Run("kernel", func(b *testing.B) {
		c := kernel.For(inst)
		if c == nil {
			b.Fatal("instance did not compile to a kernel")
		}
		ka := c.NewAssignment()
		ka.PackFrom(a)
		scr := c.NewScratch()
		pool := engine.New(runtime.GOMAXPROCS(0))
		defer pool.Close()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Violated(ka, pool, scr); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		reportRoundMetrics(b, b.N, &m0, &m1)
	})
}

// Micro-benchmarks of the public solver entry points, for users sizing
// their own workloads.

func BenchmarkSolveSequentialRank2(b *testing.B) {
	s, err := lll.NewSinkless(lll.NewCycle(128), 0.2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lll.Solve(s.Instance, lll.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.FinalViolatedEvents != 0 {
			b.Fatal("violations")
		}
	}
}

func BenchmarkSolveSequentialRank3(b *testing.B) {
	r := lll.NewRand(1)
	h, err := lll.NewRandomRegularRank3(60, 3, r)
	if err != nil {
		b.Fatal(err)
	}
	s, err := lll.NewHyperSinkless(h, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lll.Solve(s.Instance, lll.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.FinalViolatedEvents != 0 {
			b.Fatal("violations")
		}
	}
}

func BenchmarkSolveDistributedRank3(b *testing.B) {
	r := lll.NewRand(2)
	h, err := lll.NewRandomRegularRank3(18, 2, r)
	if err != nil {
		b.Fatal(err)
	}
	s, err := lll.NewHyperSinkless(h, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lll.SolveDistributed(s.Instance, lll.Options{}, lll.LocalOptions{IDSeed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if res.ViolatedEvents != 0 {
			b.Fatal("violations")
		}
	}
}
