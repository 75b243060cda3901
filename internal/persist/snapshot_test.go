package persist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flexmeasures/internal/shard"
	"flexmeasures/internal/workload"
)

// countingWriter records the size of every Write.
type countingWriter struct {
	bytes.Buffer
	writes []int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return c.Buffer.Write(p)
}

// churnedWAL builds a WAL-backed store whose shards interleave in Seq:
// n zoned offers, then re-submissions that move some across shards
// (zone change) and deletions, so the snapshot writer's merge order is
// exercised, not just shard-by-shard concatenation.
func churnedWAL(t testing.TB, dir string, shards, n int) *WALStore {
	t.Helper()
	w, err := OpenWAL(Options{Dir: dir, Router: shard.Router{Shards: shards}, Fsync: FsyncOff, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	offers := fleet(t, 31, n)
	workload.StampZones(rand.New(rand.NewSource(31)), offers, 5)
	for i := 0; i < len(offers); i += 7 {
		offers[i].Zone = "" // anonymous-zone offers route by Seq
	}
	ctx := context.Background()
	for _, b := range batches(offers, 500) {
		if _, _, err := w.Add(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	moved := fleet(t, 31, n)[:min(n/4, 150)]
	for i, f := range moved {
		f.Zone = fmt.Sprintf("z%02d", (i*3)%7)
	}
	if _, _, err := w.Add(ctx, moved); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < n; i += 11 {
		ids = append(ids, offers[i].ID)
	}
	if _, _, err := w.Delete(ctx, ids); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSnapshotMatchesOracle pins the buffered snapshot writer to the
// bytes of the per-record writer it replaced, across shard counts and
// for a store large enough to span several buffers — both the encoder
// alone and the snapshot file a WALStore publishes.
func TestSnapshotMatchesOracle(t *testing.T) {
	for _, c := range []struct{ shards, n int }{{1, 300}, {3, 300}, {5, 300}, {4, 40000}} {
		t.Run(fmt.Sprintf("shards=%d/n=%d", c.shards, c.n), func(t *testing.T) {
			dir := t.TempDir()
			w := churnedWAL(t, dir, c.shards, c.n)
			defer w.Close()
			parts, seq := w.Snapshot(), w.Seq()

			var got countingWriter
			var want bytes.Buffer
			if err := encodeSnapshot(&got, parts, seq); err != nil {
				t.Fatal(err)
			}
			if err := oracleEncodeSnapshot(&want, parts, seq); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("snapshot: %d bytes differ from the oracle's %d", got.Len(), want.Len())
			}
			if limit := (want.Len()+snapshotBufBytes-1)/snapshotBufBytes + 1; len(got.writes) > limit {
				t.Fatalf("%d-byte snapshot took %d writes, want ≤ %d", want.Len(), len(got.writes), limit)
			}
			if c.n > 30000 && len(got.writes) < 2 {
				t.Fatalf("%d-byte snapshot fit one write; the multi-buffer path went untested", want.Len())
			}

			// The published file, through the WAL's own snapshot path.
			w.mu.Lock()
			err := w.snapshotLocked(true)
			w.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			var snaps []string
			for _, name := range dirNames(t, dir) {
				if _, kind, ok := parseName(name); ok && kind == kindSnapshot {
					snaps = append(snaps, name)
				}
			}
			if len(snaps) != 1 {
				t.Fatalf("found snapshots %v, want one", snaps)
			}
			file, err := os.ReadFile(filepath.Join(dir, snaps[0]))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(file, want.Bytes()) {
				t.Fatalf("published snapshot: %d bytes differ from the oracle's %d", len(file), want.Len())
			}
		})
	}
}

// TestWALEmptyReopensLeaveOneSegment pins that booting without
// appending creates no files: three reopens of a one-segment directory
// leave that one segment, and an append after them opens exactly one
// more.
func TestWALEmptyReopensLeaveOneSegment(t *testing.T) {
	dir := t.TempDir()
	r := shard.Router{Shards: 2}
	w := openTestWAL(t, Options{Dir: dir, Router: r})
	offers := fleet(t, 41, 20)
	if _, _, err := w.Add(context.Background(), offers); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("one append left %v, want one segment", names)
	}
	for i := 0; i < 3; i++ {
		re := openTestWAL(t, Options{Dir: dir, Router: r})
		if re.Len() != len(offers) {
			t.Fatalf("reopen %d: %d offers, want %d", i, re.Len(), len(offers))
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		if names := dirNames(t, dir); len(names) != 1 {
			t.Fatalf("reopen %d left %v, want one segment", i, names)
		}
	}
	re := openTestWAL(t, Options{Dir: dir, Router: r})
	if _, _, err := re.Add(context.Background(), fleet(t, 42, 3)); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) != 2 {
		t.Fatalf("an append after empty reopens left %v, want two segments", names)
	}
}

// BenchmarkSnapshot50k times writing the snapshot of a 50k-offer,
// two-shard store through the WAL's snapshot path (fsync off), counting
// the writes through a FaultFS: the buffered writer must need at most
// ⌈bytes/snapshotBufBytes⌉ + 2 of them.
func BenchmarkSnapshot50k(b *testing.B) {
	dir := b.TempDir()
	ffs := &FaultFS{Inner: OS()}
	w, err := OpenWAL(Options{Dir: dir, Router: shard.Router{Shards: 2}, FS: ffs, Fsync: FsyncOff, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	for _, batch := range batches(fleet(b, 50, 50000), 1000) {
		if _, _, err := w.Add(context.Background(), batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := ffs.Writes()
		w.mu.Lock()
		err := w.snapshotLocked(true)
		w.mu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		writes := ffs.Writes() - before
		var size int64
		for _, name := range dirNames(b, dir) {
			if _, kind, ok := parseName(name); ok && kind == kindSnapshot {
				info, err := os.Stat(filepath.Join(dir, name))
				if err != nil {
					b.Fatal(err)
				}
				size = info.Size()
			}
		}
		if limit := int((size+snapshotBufBytes-1)/snapshotBufBytes) + 2; writes > limit {
			b.Fatalf("%d-byte snapshot took %d writes, want ≤ %d", size, writes, limit)
		}
		b.ReportMetric(float64(writes), "writes/op")
		b.StartTimer()
	}
}

// TestWALReplaysFXW1DataDir replays a data directory committed under
// testdata/wal-fxw1, written by the per-record snapshot writer and the
// bufio record encoder this package used before: a snapshot, a log
// segment of adds, replaces (some moving shards) and deletes, and the
// header-only segment an append-free boot used to leave. The replayed
// store must equal the one that writer held (testdata/wal-fxw1.json),
// and the directory must keep accepting appends.
func TestWALReplaysFXW1DataDir(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "wal-fxw1")
	for _, name := range dirNames(t, src) {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "wal-fxw1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Seq    uint64          `json:"seq"`
		Shards [][]shard.Entry `json:"shards"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	o := Options{Dir: dir, Router: shard.Router{Shards: 3}}
	w := openTestWAL(t, o)
	if !reflect.DeepEqual(w.Snapshot(), want.Shards) || w.Seq() != want.Seq {
		t.Fatalf("replayed %v (seq %d), want the writer's store %d shards (seq %d)", w.ShardLens(), w.Seq(), len(want.Shards), want.Seq)
	}
	if st := w.Stats(); st.SnapshotRecords == 0 || st.Records == 0 {
		t.Fatalf("replay stats %+v, want a snapshot and log records", st)
	}
	extra := fleet(t, 63, 2)
	if _, _, err := w.Add(context.Background(), extra); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTestWAL(t, o)
	defer re.Close()
	if re.Len() != w.Len() || re.Seq() != want.Seq+uint64(len(extra)) {
		t.Fatalf("after an append: %d offers (seq %d), want %d (seq %d)", re.Len(), re.Seq(), w.Len(), want.Seq+uint64(len(extra)))
	}
}
