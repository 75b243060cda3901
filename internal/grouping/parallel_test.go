package grouping

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/pool"
)

// TestShardedGrouperMatchesSerial is the package's acceptance
// criterion, pinned in CI: the sharded grouper's output is bit-identical
// to the serial oracle for every tested worker count, tolerance set,
// input density (which controls the shard sizes) and input permutation.
func TestShardedGrouperMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	paramSets := []Params{
		{ESTTolerance: 0, TFTolerance: -1},
		{ESTTolerance: 2, TFTolerance: -1},
		{ESTTolerance: 2, TFTolerance: 1, MaxGroupSize: 5},
		{ESTTolerance: 5, TFTolerance: 0},
		{ESTTolerance: 1, TFTolerance: 4, MaxGroupSize: 3},
	}
	shapes := []struct{ n, estRange, tfMax int }{
		{1, 4, 2},     // single offer
		{40, 200, 3},  // sparse: almost every offer its own shard
		{150, 40, 6},  // medium density
		{300, 12, 4},  // dense: few, large shards
		{220, 1, 5},   // a single EST: exactly one shard (serial fallback)
		{500, 900, 8}, // very sparse with wide windows
	}
	for si, shape := range shapes {
		offers := randomOffers(t, rng, shape.n, shape.estRange, shape.tfMax)
		for shuffle := 0; shuffle < 3; shuffle++ {
			if shuffle > 0 {
				rng.Shuffle(len(offers), func(i, j int) { offers[i], offers[j] = offers[j], offers[i] })
			}
			for pi, p := range paramSets {
				want := Group(offers, p)
				for _, workers := range []int{1, 2, 3, 8} {
					s := &Sharded{Params: p, Workers: workers, MinOffers: -1}
					got, err := s.Group(context.Background(), offers)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("shape %d shuffle %d params %d workers %d: sharded grouping diverged from serial",
							si, shuffle, pi, workers)
					}
				}
			}
		}
	}
}

// TestShardedGrouperOnPool runs the same equivalence over a shared
// persistent pool — the engine's execution model.
func TestShardedGrouperOnPool(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	offers := randomOffers(t, rng, 400, 60, 5)
	p := Params{ESTTolerance: 2, TFTolerance: 3, MaxGroupSize: 8}
	want := Group(offers, p)
	pl := pool.New(3)
	defer pl.Close()
	for _, workers := range []int{0, 1, 2, 3} {
		s := &Sharded{Params: p, Pool: pl, Workers: workers, MinOffers: -1}
		got, err := s.Group(context.Background(), offers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: pool-backed sharded grouping diverged from serial", workers)
		}
	}
}

// TestShardedGrouperSerialFallback checks the two documented fallbacks:
// inputs below MinOffers skip the sharding machinery, and a fully
// EST-connected input (one shard) packs serially — both bit-identical
// to the oracle by construction.
func TestShardedGrouperSerialFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small := randomOffers(t, rng, 30, 10, 3)
	p := Params{ESTTolerance: 2, TFTolerance: -1}
	s := &Sharded{Params: p, Workers: 4} // default MinOffers ≫ 30
	got, err := s.Group(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(Group(small, p), got) {
		t.Fatal("small-input fallback diverged from serial")
	}
	// One EST-connected run: a tolerance wider than the EST range.
	dense := randomOffers(t, rng, 300, 5, 4)
	wide := Params{ESTTolerance: 100, TFTolerance: -1, MaxGroupSize: 7}
	s = &Sharded{Params: wide, Workers: 4, MinOffers: -1}
	got, err = s.Group(context.Background(), dense)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(Group(dense, wide), got) {
		t.Fatal("single-shard fallback diverged from serial")
	}
}

// sortedRun returns the offers in the reference stable (est, tf) order
// together with their keys in that order.
func sortedRun(offers []*flexoffer.FlexOffer) (sorted []*flexoffer.FlexOffer, sortedEST, sortedTF []int) {
	ests, tfs := keysOf(offers)
	return sortedBy(stableSortPerm(ests, tfs), offers, ests, tfs)
}

// TestPackSortedMatchesPack checks the segmented pack on its own: for
// every tolerance set and worker count, on a pool and without one, it
// reproduces one serial Pack over the whole sorted run.
func TestPackSortedMatchesPack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	offers := randomOffers(t, rng, 350, 120, 5)
	sorted, sortedEST, sortedTF := sortedRun(offers)
	p4 := pool.New(4)
	defer p4.Close()
	for _, p := range []Params{
		{ESTTolerance: 1, TFTolerance: -1, MaxGroupSize: 6},
		{ESTTolerance: 0, TFTolerance: 0},
		{ESTTolerance: 1000, TFTolerance: -1},
	} {
		want := Pack(sorted, sortedTF, p)
		for _, workers := range []int{1, 2, 4} {
			for _, ex := range []pool.Executor{nil, p4} {
				got, err := PackSorted(context.Background(), sorted, sortedEST, sortedTF, p, ex, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("params %+v workers=%d pool=%v: segmented pack diverged from Pack", p, workers, ex != nil)
				}
			}
		}
	}
}

// TestShardedGrouperCancelled checks that cancellation surfaces as the
// context's error from Group and from the segmented pack.
func TestShardedGrouperCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	offers := randomOffers(t, rng, 100, 50, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &Sharded{Params: Params{ESTTolerance: 1, TFTolerance: -1}, Workers: 2, MinOffers: -1}
	if _, err := s.Group(ctx, offers); err != context.Canceled {
		t.Fatalf("cancelled Group returned %v, want context.Canceled", err)
	}
	sorted, sortedEST, sortedTF := sortedRun(offers)
	if _, err := PackSorted(ctx, sorted, sortedEST, sortedTF, s.Params, nil, 2); err != context.Canceled {
		t.Fatalf("cancelled PackSorted returned %v, want context.Canceled", err)
	}
}

// benchOffers is a fixed population for the grouping benchmarks.
func benchOffers(b *testing.B, n int) []*flexoffer.FlexOffer {
	return randomOffers(b, rand.New(rand.NewSource(99)), n, n/8, 6)
}

func BenchmarkGroupSerial10k(b *testing.B) {
	offers := benchOffers(b, 10000)
	p := Params{ESTTolerance: 2, TFTolerance: -1, MaxGroupSize: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Group(offers, p)
	}
}

func BenchmarkGroupSharded10k(b *testing.B) {
	offers := benchOffers(b, 10000)
	s := &Sharded{Params: Params{ESTTolerance: 2, TFTolerance: -1, MaxGroupSize: 32}, MinOffers: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Group(context.Background(), offers); err != nil {
			b.Fatal(err)
		}
	}
}
