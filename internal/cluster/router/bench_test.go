package router

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/service"
)

// BenchmarkRouterPlacement measures the router's pure placement decision
// — spec canonicalisation into the placement key plus the consistent-hash
// preference walk — with no HTTP in the loop. This is the per-request
// overhead the routing tier adds on top of a node's own admission, and it
// must stay in the microsecond range: placement is on the submit path of
// every job, so a regression here taxes the whole cluster's ingest rate.
func BenchmarkRouterPlacement(b *testing.B) {
	ring := cluster.NewRing([]string{"n1", "n2", "n3", "n4", "n5"}, cluster.DefaultVNodes)
	specs := make([]service.JobSpec, 64)
	for i := range specs {
		specs[i] = service.JobSpec{
			Family: service.FamilySinkless, N: 4096,
			Algorithm: service.AlgMTPar, Seed: uint64(i + 1), Cache: true,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key, err := service.PlacementKeyFor(specs[i%len(specs)])
		if err != nil {
			b.Fatal(err)
		}
		if got := ring.Prefer(key, 3); len(got) != 3 {
			b.Fatalf("prefer returned %d nodes", len(got))
		}
	}
}

// BenchmarkRelayRoundStream measures one routed job of dist-cold's shape
// end to end: the submit, then a 673-line stream (queued, start, 670
// rounds, end) relayed from a stub node to one client. B/op and allocs/op
// cover the whole process, router, stub node and client together.
func BenchmarkRelayRoundStream(b *testing.B) {
	ts := newRelayBench(b, distStream(b, 670))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relayJob(b, ts)
	}
}
