package service

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/batch"
	"repro/internal/prng"
)

// hashedCacheKey is the cache key as it was before the key became a pure
// fold of the spec: the same field fold, started from the WL hash of the
// built instance. Kept frozen as the reference the spec-only key is
// checked against.
func hashedCacheKey(js JobSpec, h uint64) uint64 {
	k := prng.Mix64(h ^ 0xcac4e)
	mixBytes := func(b []byte) {
		k = prng.Mix64(k ^ uint64(len(b)))
		for _, c := range b {
			k = prng.Mix64(k ^ uint64(c))
		}
	}
	mixBytes([]byte(js.Family))
	k = prng.Mix64(k ^ uint64(js.N))
	k = prng.Mix64(k ^ uint64(js.Degree))
	k = prng.Mix64(k ^ math.Float64bits(js.Margin))
	k = prng.Mix64(k ^ math.Float64bits(js.Slack))
	k = prng.Mix64(k ^ uint64(js.Colors))
	mixBytes(js.Instance)
	mixBytes([]byte(js.Algorithm))
	k = prng.Mix64(k ^ js.Seed)
	k = prng.Mix64(k ^ uint64(js.MaxRounds))
	k = prng.Mix64(k ^ uint64(js.MaxResamplings))
	k = prng.Mix64(k ^ uint64(js.MaxIters))
	return k
}

// The relabeled inline pair of TestCacheInlineRelabeledDistinct: isomorphic
// and WL-indistinguishable, but with different event index order.
var (
	inlinePathA = []byte(`{"version":1,"variables":[{"probs":[0.5,0.5]},{"probs":[0.5,0.5]},{"probs":[0.5,0.5]}],"events":[{"kind":"allEqual","scope":[0,1]},{"kind":"allEqual","scope":[1,2]}]}`)
	inlinePathB = []byte(`{"version":1,"variables":[{"probs":[0.5,0.5]},{"probs":[0.5,0.5]},{"probs":[0.5,0.5]}],"events":[{"kind":"allEqual","scope":[2,1]},{"kind":"allEqual","scope":[1,0]}]}`)
)

// keyCorpus covers every family, the relabeled inline pair, defaulted vs
// explicit fields, and variations in seed, margin, degree, budgets and the
// fields the key deliberately ignores, plus the members of a batch.
func keyCorpus() []JobSpec {
	var c []JobSpec
	// Defaulted vs explicit: all three normalize to the same spec.
	c = append(c,
		JobSpec{},
		JobSpec{Family: FamilySinkless, N: 64, Degree: 2, Margin: 0.9, Slack: 0.4, Colors: 16, Seed: 1, Algorithm: AlgDist},
		JobSpec{Workers: 2, MaxRetries: 3, TimeoutMS: 500, CheckpointEvery: 4, Tenant: "t1", BatchGroup: "g", Cache: true},
	)
	for _, alg := range []string{AlgSeq, AlgDist, AlgMTSeq, AlgMTPar, AlgMTDist, AlgOneShot} {
		for _, seed := range []uint64{1, 2, 7} {
			c = append(c,
				JobSpec{Family: FamilySinkless, N: 16, Algorithm: alg, Seed: seed},
				JobSpec{Family: FamilySinkless, N: 16, Degree: 3, Algorithm: alg, Seed: seed},
				JobSpec{Family: FamilyHyper, N: 12, Algorithm: alg, Seed: seed},
				JobSpec{Family: FamilyOrient3, N: 12, Algorithm: alg, Seed: seed},
				JobSpec{Family: FamilyWeakSplit, N: 12, Colors: 4, Algorithm: alg, Seed: seed},
			)
		}
		c = append(c,
			JobSpec{Family: FamilyInline, Instance: inlinePathA, Algorithm: alg},
			JobSpec{Family: FamilyInline, Instance: inlinePathB, Algorithm: alg},
		)
	}
	for _, margin := range []float64{0.5, 0.7, 0.95} {
		c = append(c, JobSpec{Family: FamilySinkless, N: 20, Degree: 3, Margin: margin, Algorithm: AlgMTPar, Seed: 4})
	}
	for _, degree := range []int{3, 4, 5} {
		c = append(c, JobSpec{Family: FamilySinkless, N: 20, Degree: degree, Algorithm: AlgSeq, Seed: 4})
	}
	// Fields the family does not read still split the key, with or
	// without the hash.
	c = append(c,
		JobSpec{Family: FamilySinkless, N: 20, Slack: 0.3, Algorithm: AlgSeq, Seed: 4},
		JobSpec{Family: FamilyHyper, N: 12, Margin: 0.6, Algorithm: AlgMTPar, Seed: 4},
	)
	for _, b := range []JobSpec{
		{MaxRounds: 5}, {MaxRounds: 6}, {MaxResamplings: 50}, {MaxIters: 9}, {Workers: 1}, {Workers: 2},
	} {
		b.Family, b.N, b.Algorithm, b.Seed = FamilySinkless, 18, AlgMTPar, 3
		c = append(c, b)
	}
	sweep := JobSpec{Cache: true}
	for k := 0; k < 4; k++ {
		m := 0.5 + 0.15*float64(k)
		sweep.Batch = append(sweep.Batch,
			JobSpec{Family: FamilySinkless, N: 24, Algorithm: AlgMTPar, Margin: m, Seed: uint64(10 + k)},
			JobSpec{Family: FamilySinkless, N: 24, Degree: 3, Algorithm: AlgSeq, Margin: m, Seed: uint64(20 + k)},
		)
	}
	sweep.Batch = append(sweep.Batch, sweep.Batch[0], sweep.Batch[1])
	norm, err := sweep.withDefaults()
	if err != nil {
		panic(err)
	}
	return append(c, norm.Batch...)
}

// TestCacheKeyMatchesHashedKey: over the corpus, two specs get equal keys
// exactly when they got equal keys with the instance's WL hash folded in —
// so dropping the hash neither merged two cache entries nor split one. The
// spec-only key is also the old fold at hash 0, the value PlacementKeyFor
// has always used.
func TestCacheKeyMatchesHashedKey(t *testing.T) {
	type keyed struct {
		name         string
		key, hashed  uint64
		events, vars int
	}
	var ks []keyed
	for i, raw := range keyCorpus() {
		js, err := raw.withDefaults()
		if err != nil {
			t.Fatalf("corpus %d: %v", i, err)
		}
		inst, err := buildInstance(js)
		if err != nil {
			t.Fatalf("corpus %d (%+v): %v", i, js, err)
		}
		k := cacheKey(js)
		if want := hashedCacheKey(js, 0); k != want {
			t.Fatalf("corpus %d: cacheKey = %#x, want the hash-0 fold %#x", i, k, want)
		}
		ks = append(ks, keyed{
			name: fmt.Sprintf("%d %s/%s n=%d seed=%d", i, js.Family, js.Algorithm, js.N, js.Seed),
			key:  k, hashed: hashedCacheKey(js, batch.Hash(inst)),
			events: inst.NumEvents(), vars: inst.NumVars(),
		})
	}
	equalPairs, distinctPairs := 0, 0
	for i := range ks {
		for j := i + 1; j < len(ks); j++ {
			a, b := ks[i], ks[j]
			if (a.key == b.key) != (a.hashed == b.hashed) {
				t.Errorf("%s vs %s: spec keys equal = %v, hashed keys equal = %v",
					a.name, b.name, a.key == b.key, a.hashed == b.hashed)
			}
			if a.key == b.key {
				equalPairs++
				if a.events != b.events || a.vars != b.vars {
					t.Errorf("%s and %s share a key but build different instances", a.name, b.name)
				}
			} else {
				distinctPairs++
			}
		}
	}
	// The corpus must exercise both sides of the equivalence.
	if equalPairs < 5 || distinctPairs == 0 {
		t.Fatalf("corpus too weak: %d equal pairs, %d distinct pairs", equalPairs, distinctPairs)
	}
}

// TestPlacementKeyPinned pins PlacementKeyFor to the values it returned
// while the cache key still folded the WL hash, so routers and nodes of
// either version place the same jobs on the same nodes.
func TestPlacementKeyPinned(t *testing.T) {
	pins := []struct {
		name string
		spec JobSpec
		want uint64
	}{
		{"defaults", JobSpec{}, 0xe50dcf8c6d5d7665},
		{"cached mtpar", cacheSpec(5), 0x5b7bb8b40d217f72},
		{"hyper mtseq", JobSpec{Family: FamilyHyper, N: 18, Algorithm: AlgMTSeq, Seed: 9}, 0x77344c189b503377},
		{"inline", JobSpec{Family: FamilyInline, Instance: inlinePathA, Algorithm: AlgMTSeq, Cache: true}, 0x251f54e4755b2d4a},
		{"sweep member", JobSpec{Family: FamilySinkless, N: 1000, Algorithm: AlgMTPar, Margin: 0.5, Seed: 211}, 0x1a298f7597268689},
		{"batch", batchOf(true, cacheSpec(1), cacheSpec(2),
			JobSpec{Family: FamilySinkless, N: 1000, Degree: 3, Algorithm: AlgSeq, Margin: 0.95, Seed: 7}), 0x34313dd9dc74db7f},
		{"batch with duplicate", batchOf(true, cacheSpec(3), cacheSpec(3)), 0x2187b7dfb487a15f},
	}
	for _, p := range pins {
		got, err := PlacementKeyFor(p.spec)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got != p.want {
			t.Errorf("%s: PlacementKeyFor = %#x, want %#x", p.name, got, p.want)
		}
	}
}
