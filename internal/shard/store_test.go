package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"flexmeasures/internal/flexoffer"
)

// TestStoresSnapshotHammer runs Snapshot concurrently with Add, Delete
// and zone-moving re-submissions: every snapshot still holds, after all
// writers finish, exactly what a copy taken when it was made holds.
// Run under -race, an in-place edit of a slice a snapshot has seen is
// also reported as a race with the copying reader.
func TestStoresSnapshotHammer(t *testing.T) {
	const n, writers, readers, rounds = 2000, 2, 3, 150
	st := NewStores(Router{Shards: 4})
	rng := rand.New(rand.NewSource(23))
	st.Add(randFleet(rng, n, 6))

	type taken struct{ snap, copied [][]Entry }
	var (
		wg      sync.WaitGroup
		done    = make(chan struct{})
		results = make([][]taken, readers)
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := st.Snapshot()
				copied := make([][]Entry, len(snap))
				for k, part := range snap {
					copied[k] = append([]Entry(nil), part...)
				}
				if len(results[r]) < 64 {
					results[r] = append(results[r], taken{snap, copied})
				} else {
					results[r][rand.Intn(64)] = taken{snap, copied}
				}
			}
		}(r)
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < rounds; i++ {
				batch := make([]*flexoffer.FlexOffer, 20)
				for j := range batch {
					// Existing IDs re-submitted under a random zone move
					// between shards; fresh IDs append.
					batch[j] = randOffer(rng, fmt.Sprintf("p-%04d", rng.Intn(n+200)), fmt.Sprintf("z%02d", rng.Intn(6)))
				}
				st.Add(batch)
				st.Delete([]string{fmt.Sprintf("p-%04d", rng.Intn(n+200)), fmt.Sprintf("p-%04d", rng.Intn(n+200))})
			}
		}(w)
	}
	ww.Wait()
	close(done)
	wg.Wait()
	checked := 0
	for _, rs := range results {
		for _, tk := range rs {
			if !reflect.DeepEqual(tk.snap, tk.copied) {
				t.Fatal("a snapshot changed after it was taken")
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no snapshot was taken")
	}
}

// TestStoresCloneOnlyAfterSnapshot: a replacing batch on a store no
// snapshot has seen since its last clone edits the shards in place and
// allocates next to nothing; after a Snapshot the next batch clones
// each touched shard once, and the snapshot keeps its contents.
func TestStoresCloneOnlyAfterSnapshot(t *testing.T) {
	const n, batch = 50000, 1000
	rng := rand.New(rand.NewSource(29))
	offers := make([]*flexoffer.FlexOffer, n)
	for i := range offers {
		offers[i] = randOffer(rng, fmt.Sprintf("p-%05d", i), fmt.Sprintf("z%d", i%4))
	}
	st := NewStores(Router{Shards: 2})
	st.Add(offers)
	resubmit := func() []Mutation {
		b := make([]*flexoffer.FlexOffer, batch)
		for i := range b {
			old := offers[rng.Intn(n)]
			b[i] = randOffer(rng, old.ID, old.Zone) // same zone: same shard
		}
		return st.Stage(b)
	}
	apply := func(muts []Mutation) uint64 {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		if err := st.Apply(muts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms1)
		return ms1.TotalAlloc - ms0.TotalAlloc
	}
	arrays := func() []*Entry {
		out := make([]*Entry, len(st.shards))
		for k, part := range st.shards {
			out[k] = &part[0]
		}
		return out
	}

	st.Snapshot()
	apply(resubmit()) // the clone after the snapshot
	before := arrays()
	muts := resubmit()
	if got := apply(muts); got >= 64<<10 {
		t.Fatalf("a %d-offer replacing batch with no snapshot since the last clone allocated %d B, want < 64 KiB", batch, got)
	}
	if !reflect.DeepEqual(arrays(), before) {
		t.Fatal("a batch with no snapshot since the last clone cloned a shard")
	}

	snap := st.Snapshot()
	copied := make([][]Entry, len(snap))
	for k, part := range snap {
		copied[k] = append([]Entry(nil), part...)
	}
	got := apply(resubmit())
	storeBytes := uint64(n) * uint64(unsafe.Sizeof(Entry{}))
	if got < storeBytes || got >= 2*storeBytes {
		t.Fatalf("a replacing batch after a snapshot allocated %d B, want one clone of each shard (%d B in all)", got, storeBytes)
	}
	for k, a := range arrays() {
		if a == before[k] {
			t.Fatalf("shard %d was edited in place after a snapshot", k)
		}
	}
	if !reflect.DeepEqual(snap, copied) {
		t.Fatal("the snapshot changed")
	}
}
