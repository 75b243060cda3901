package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"flexmeasures/internal/flexoffer"
)

// randOffer builds a small random valid offer with optional ID/zone.
func randOffer(rng *rand.Rand, id, zone string) *flexoffer.FlexOffer {
	est := rng.Intn(50)
	f := flexoffer.MustNew(est, est+rng.Intn(8),
		flexoffer.Slice{Min: int64(rng.Intn(5)), Max: int64(5 + rng.Intn(5))},
		flexoffer.Slice{Min: 0, Max: int64(1 + rng.Intn(6))})
	f.ID = id
	f.Zone = zone
	return f
}

func randFleet(rng *rand.Rand, n int, zones int) []*flexoffer.FlexOffer {
	offers := make([]*flexoffer.FlexOffer, n)
	for i := range offers {
		id := ""
		if rng.Intn(4) > 0 {
			id = fmt.Sprintf("p-%04d", i)
		}
		zone := ""
		if zones > 0 && rng.Intn(3) > 0 {
			zone = fmt.Sprintf("z%02d", rng.Intn(zones))
		}
		offers[i] = randOffer(rng, id, zone)
	}
	return offers
}

func TestRouteDeterministicAndInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	offers := randFleet(rng, 200, 5)
	for _, n := range []int{1, 2, 4, 8, 13} {
		r := Router{Shards: n}
		for i, f := range offers {
			a := r.Route(f, uint64(i))
			b := r.Route(f, uint64(i))
			if a != b {
				t.Fatalf("shards=%d: route not deterministic: %d vs %d", n, a, b)
			}
			if a < 0 || a >= n {
				t.Fatalf("shards=%d: route %d out of range", n, a)
			}
		}
	}
}

func TestRouteZonePrecedence(t *testing.T) {
	r := Router{Shards: 8}
	a := randOffer(rand.New(rand.NewSource(2)), "id-a", "zone-x")
	b := randOffer(rand.New(rand.NewSource(3)), "id-b", "zone-x")
	if r.Route(a, 0) != r.Route(b, 99) {
		t.Fatalf("same zone should co-locate regardless of ID and seq")
	}
}

func TestRouteKeylessRoundRobin(t *testing.T) {
	r := Router{Shards: 4}
	f := randOffer(rand.New(rand.NewSource(4)), "", "")
	for seq := uint64(0); seq < 16; seq++ {
		if got, want := r.Route(f, seq), int(seq%4); got != want {
			t.Fatalf("seq %d: got shard %d, want %d", seq, got, want)
		}
	}
}

// TestJumpConsistency pins the consistent-hashing property: growing
// the bucket count only ever moves a key to one of the new buckets.
func TestJumpConsistency(t *testing.T) {
	for i := 0; i < 500; i++ {
		h := Hash64(fmt.Sprintf("key-%d", i))
		prev := Jump(h, 4)
		next := Jump(h, 5)
		if next != prev && next != 4 {
			t.Fatalf("key %d moved from %d to %d on growth (want stay or 4)", i, prev, next)
		}
	}
}

func TestPartitionFlattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	offers := randFleet(rng, 300, 6)
	for _, n := range []int{1, 2, 3, 4, 8} {
		parts := Partition(offers, Router{Shards: n})
		if got := Flatten(parts); !reflect.DeepEqual(got, offers) {
			t.Fatalf("shards=%d: Flatten(Partition(offers)) != offers", n)
		}
	}
}

// TestMergeRunsIsGlobalStableSort checks the gather step's core
// property: merging per-shard stable-sorted runs by (est, tf, seq)
// reproduces the stable (est, tf) sort of the whole population.
func TestMergeRunsIsGlobalStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		offers := randFleet(rng, 50+rng.Intn(200), 4)
		want := append([]*flexoffer.FlexOffer(nil), offers...)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].EarliestStart != want[j].EarliestStart {
				return want[i].EarliestStart < want[j].EarliestStart
			}
			return want[i].TimeFlexibility() < want[j].TimeFlexibility()
		})
		for _, n := range []int{1, 2, 4, 7} {
			parts := Partition(offers, Router{Shards: n})
			runs := make([]Run, len(parts))
			for k, part := range parts {
				run := Run{
					Offers: make([]*flexoffer.FlexOffer, len(part)),
					Seqs:   make([]uint64, len(part)),
					ESTs:   make([]int, len(part)),
					TFs:    make([]int, len(part)),
				}
				for i, e := range part {
					run.Offers[i] = e.Offer
					run.Seqs[i] = e.Seq
					run.ESTs[i] = e.Offer.EarliestStart
					run.TFs[i] = e.Offer.TimeFlexibility()
				}
				// A stable (est, tf) sort of a Seq-sorted part is in
				// (est, tf, seq) order.
				perm := make([]int, len(part))
				for i := range perm {
					perm[i] = i
				}
				sort.SliceStable(perm, func(a, b int) bool {
					if run.ESTs[perm[a]] != run.ESTs[perm[b]] {
						return run.ESTs[perm[a]] < run.ESTs[perm[b]]
					}
					return run.TFs[perm[a]] < run.TFs[perm[b]]
				})
				runs[k] = permuteRun(run, perm)
			}
			merged := MergeRuns(runs)
			if len(merged.Offers) != len(want) {
				t.Fatalf("shards=%d: merged %d offers, want %d", n, len(merged.Offers), len(want))
			}
			for i := range want {
				if merged.Offers[i] != want[i] {
					t.Fatalf("shards=%d trial %d: merged[%d] differs from stable sort", n, trial, i)
				}
			}
		}
	}
}

func permuteRun(r Run, perm []int) Run {
	out := Run{
		Offers: make([]*flexoffer.FlexOffer, len(perm)),
		Seqs:   make([]uint64, len(perm)),
		ESTs:   make([]int, len(perm)),
		TFs:    make([]int, len(perm)),
	}
	for i, pi := range perm {
		out.Offers[i] = r.Offers[pi]
		out.Seqs[i] = r.Seqs[pi]
		out.ESTs[i] = r.ESTs[pi]
		out.TFs[i] = r.TFs[pi]
	}
	return out
}

// TestStoresMatchesSingleStore drives Stores and a reference unsharded
// last-write-wins store with the same batches — including ID
// re-submissions that change zone, forcing cross-shard moves — and
// checks the flattened shard contents equal the reference order.
func TestStoresMatchesSingleStore(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(int64(7 + shards)))
		st := NewStores(Router{Shards: shards})
		var ref []*flexoffer.FlexOffer
		refIndex := map[string]int{}
		for batch := 0; batch < 10; batch++ {
			n := 1 + rng.Intn(30)
			offers := make([]*flexoffer.FlexOffer, n)
			for i := range offers {
				id := ""
				switch rng.Intn(3) {
				case 0: // anonymous
				default:
					id = fmt.Sprintf("p-%03d", rng.Intn(40))
				}
				zone := ""
				if rng.Intn(2) == 0 {
					zone = fmt.Sprintf("z%d", rng.Intn(5))
				}
				offers[i] = randOffer(rng, id, zone)
			}
			wantReplaced := 0
			for _, f := range offers {
				if f.ID != "" {
					if at, ok := refIndex[f.ID]; ok {
						ref[at] = f
						wantReplaced++
						continue
					}
					refIndex[f.ID] = len(ref)
				}
				ref = append(ref, f)
			}
			muts, stored := st.Add(offers)
			replaced, routed := Summarize(muts, shards)
			if replaced != wantReplaced {
				t.Fatalf("shards=%d batch %d: replaced %d, want %d", shards, batch, replaced, wantReplaced)
			}
			if stored != len(ref) {
				t.Fatalf("shards=%d batch %d: stored %d, want %d", shards, batch, stored, len(ref))
			}
			sum := 0
			for _, c := range routed {
				sum += c
			}
			if sum != n {
				t.Fatalf("shards=%d batch %d: routed counts sum %d, want %d", shards, batch, sum, n)
			}
			if got := Flatten(st.Snapshot()); !reflect.DeepEqual(got, ref) {
				t.Fatalf("shards=%d batch %d: flattened store differs from reference", shards, batch)
			}
		}
		if st.Len() != len(ref) {
			t.Fatalf("shards=%d: Len %d, want %d", shards, st.Len(), len(ref))
		}
		lens := st.ShardLens()
		sum := 0
		for _, l := range lens {
			sum += l
		}
		if sum != len(ref) {
			t.Fatalf("shards=%d: shard lens sum %d, want %d", shards, sum, len(ref))
		}
		st.Reset()
		if st.Len() != 0 || len(Flatten(st.Snapshot())) != 0 {
			t.Fatalf("shards=%d: Reset left offers behind", shards)
		}
	}
}

// TestStoresSnapshotImmutable pins the copy-on-write contract: a
// snapshot taken before replacements and cross-shard moves is
// unchanged by them.
func TestStoresSnapshotImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st := NewStores(Router{Shards: 4})
	first := make([]*flexoffer.FlexOffer, 20)
	for i := range first {
		first[i] = randOffer(rng, fmt.Sprintf("p-%02d", i), fmt.Sprintf("z%d", i%3))
	}
	st.Add(first)
	snap := st.Snapshot()
	flatBefore := Flatten(snap)
	// Replace every offer, half of them with a changed zone (cross-shard
	// moves), and append new ones.
	second := make([]*flexoffer.FlexOffer, 0, 30)
	for i := range first {
		zone := fmt.Sprintf("z%d", i%3)
		if i%2 == 0 {
			zone = fmt.Sprintf("z%d", (i+1)%3)
		}
		second = append(second, randOffer(rng, fmt.Sprintf("p-%02d", i), zone))
	}
	for i := 0; i < 10; i++ {
		second = append(second, randOffer(rng, "", ""))
	}
	st.Add(second)
	if got := Flatten(snap); !reflect.DeepEqual(got, flatBefore) {
		t.Fatalf("snapshot mutated by later Add")
	}
	if st.Len() != 30 {
		t.Fatalf("Len = %d, want 30", st.Len())
	}
}

// TestStoresZoneMovesCloneOncePerBatch applies 1,000 zone-changing
// re-submissions (cross-shard moves) plus deletions to a 40k-offer,
// 4-shard store as one batch. The result must equal applying the same
// mutations one batch each, a snapshot taken before the batch must be
// unchanged, and the batch must allocate no more than a few copies of
// the store: each touched shard is cloned once and edited in place,
// not copied per move.
func TestStoresZoneMovesCloneOncePerBatch(t *testing.T) {
	const n, moves, deletes = 40000, 1000, 100
	rng := rand.New(rand.NewSource(17))
	offers := make([]*flexoffer.FlexOffer, n)
	for i := range offers {
		offers[i] = randOffer(rng, fmt.Sprintf("p-%05d", i), fmt.Sprintf("z%d", rng.Intn(4)))
	}
	batched, single := NewStores(Router{Shards: 4}), NewStores(Router{Shards: 4})
	batched.Add(offers)
	single.Add(offers)

	moved := make([]*flexoffer.FlexOffer, moves)
	for i := range moved {
		old := offers[rng.Intn(n)]
		zone := old.Zone
		for zone == old.Zone {
			zone = fmt.Sprintf("z%d", rng.Intn(4))
		}
		moved[i] = randOffer(rng, old.ID, zone)
	}
	muts := batched.Stage(moved)
	ids := make([]string, deletes)
	for i := range ids {
		ids[i] = offers[rng.Intn(n)].ID
	}
	before := batched.Snapshot()
	beforeCopy := make([][]Entry, len(before))
	for k, part := range before {
		beforeCopy[k] = append([]Entry(nil), part...)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := batched.Apply(muts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms1)
	allocated := ms1.TotalAlloc - ms0.TotalAlloc
	if err := batched.Apply(batched.StageDelete(ids)); err != nil {
		t.Fatal(err)
	}
	for _, m := range muts {
		if err := single.Apply([]Mutation{m}); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range single.StageDelete(ids) {
		if err := single.Apply([]Mutation{m}); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := batched.Snapshot(), single.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatal("one batch of moves differs from the same moves applied one per batch")
	}
	if !reflect.DeepEqual(before, beforeCopy) {
		t.Fatal("a snapshot taken before the batch changed")
	}
	storeBytes := uint64(n) * uint64(unsafe.Sizeof(Entry{}))
	if allocated > 4*storeBytes {
		t.Fatalf("a batch of %d zone moves allocated %d B, more than 4 store copies (%d B)", moves, allocated, 4*storeBytes)
	}
}
