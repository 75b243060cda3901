package persist

import (
	"context"
	"reflect"
	"testing"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/pool"
	"flexmeasures/internal/shard"
)

// writeReplayLog appends offers in batches of 100 to a fresh
// multi-segment WAL under dir (fsync off, no snapshots, so every
// record replays from the log) and returns the router it used.
func writeReplayLog(tb testing.TB, dir string, offers []*flexoffer.FlexOffer) shard.Router {
	tb.Helper()
	r := shard.Router{Shards: 4}
	w, err := OpenWAL(Options{
		Dir: dir, Router: r, Fsync: FsyncOff,
		SegmentBytes: 64 << 10, SnapshotEvery: -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, b := range batches(offers, 100) {
		if _, _, err := w.Add(context.Background(), b); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return r
}

// TestWALParallelReplayMatchesSerial pins the boot path flexd runs:
// replay with the offer decode fanned out over a worker pool must
// rebuild exactly the store that serial replay — and a memory store
// fed the same offers — holds.
func TestWALParallelReplayMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	offers := fleet(t, 21, 3000)
	r := writeReplayLog(t, dir, offers)
	live := NewMemory(r)
	if _, _, err := live.Add(context.Background(), offers); err != nil {
		t.Fatal(err)
	}
	want := live.Snapshot()

	workers := pool.New(4)
	defer workers.Close()
	for _, c := range []struct {
		name string
		ex   pool.Executor
	}{
		{"serial", nil},
		{"pool", workers},
	} {
		t.Run(c.name, func(t *testing.T) {
			w, err := OpenWAL(Options{Dir: dir, Router: r, Executor: c.ex, SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			st := w.Stats()
			if st.Records != len(offers) || st.Segments < 2 {
				t.Fatalf("replayed %d records from %d segments, want %d from ≥ 2",
					st.Records, st.Segments, len(offers))
			}
			if got := w.ShardLens(); len(got) != r.Shards || got[0] == 0 || got[1] == 0 {
				t.Fatalf("shard lens %v, want offers in ≥ 2 shards", got)
			}
			if !reflect.DeepEqual(w.Snapshot(), want) {
				t.Fatalf("%s replay diverged from the live store: got %v, want %v",
					c.name, w.ShardLens(), live.ShardLens())
			}
		})
	}
}

// BenchmarkWALReplay times boot-time recovery of a 10k-offer,
// multi-segment log, decoding serially and fanned out over a worker
// pool. The log is written once, outside the timer, with fsync off.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	offers := fleet(b, 99, 10000)
	r := writeReplayLog(b, dir, offers)
	workers := pool.New(0)
	defer workers.Close()
	for _, c := range []struct {
		name string
		ex   pool.Executor
	}{
		{"serial", nil},
		{"pool", workers},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, err := OpenWAL(Options{Dir: dir, Router: r, Executor: c.ex, SnapshotEvery: -1})
				if err != nil {
					b.Fatal(err)
				}
				if n := w.Len(); n != len(offers) {
					b.Fatalf("replayed %d offers, want %d", n, len(offers))
				}
				b.StopTimer()
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
