package persist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/shard"
	"flexmeasures/internal/workload"
)

// fleet builds n reproducible offers with unique IDs.
func fleet(t testing.TB, seed int64, n int) []*flexoffer.FlexOffer {
	t.Helper()
	offers, err := workload.Population(rand.New(rand.NewSource(seed)), n, 2, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range offers {
		f.ID = fmt.Sprintf("s%d-%04d", seed, i)
	}
	return offers
}

// batches splits offers into batches of size k.
func batches(offers []*flexoffer.FlexOffer, k int) [][]*flexoffer.FlexOffer {
	var out [][]*flexoffer.FlexOffer
	for len(offers) > 0 {
		n := k
		if n > len(offers) {
			n = len(offers)
		}
		out = append(out, offers[:n])
		offers = offers[n:]
	}
	return out
}

func openTestWAL(t *testing.T, o Options) *WALStore {
	t.Helper()
	if o.Router.Shards == 0 {
		o.Router = shard.Router{Shards: 2}
	}
	w, err := OpenWAL(o)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// storesEqual pins two stores' entire observable state against each
// other: per-shard entries (offers, seqs, order) and the counter.
func storesEqual(t *testing.T, got, want Store) {
	t.Helper()
	if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
		t.Fatalf("stores diverge:\n got  %v (len %d)\n want %v (len %d)",
			got.ShardLens(), got.Len(), want.ShardLens(), want.Len())
	}
}

func TestWALRoundtrip(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			r := shard.Router{Shards: shards}
			w := openTestWAL(t, Options{Dir: dir, Router: r})
			mem := NewMemory(r)
			for _, b := range batches(fleet(t, 1, 57), 10) {
				if _, _, err := w.Add(context.Background(), b); err != nil {
					t.Fatal(err)
				}
				mem.Add(context.Background(), b)
			}
			// Re-adding some offers exercises replace records; deleting
			// exercises delete records.
			dup := fleet(t, 1, 57)[10:20]
			w.Add(context.Background(), dup)
			mem.Add(context.Background(), dup)
			ids := []string{"s1-0003", "s1-0042", "absent"}
			w.Delete(context.Background(), ids)
			mem.Delete(context.Background(), ids)
			storesEqual(t, w, mem)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			re := openTestWAL(t, Options{Dir: dir, Router: r})
			defer re.Close()
			storesEqual(t, re, mem)
			if re.Seq() != mem.Seq() {
				t.Fatalf("replayed seq %d, want %d", re.Seq(), mem.Seq())
			}
			if st := re.Stats(); st.DroppedBytes != 0 || st.Records == 0 {
				t.Fatalf("unexpected replay stats %+v", st)
			}
		})
	}
}

func dirNames(t testing.TB, dir string) []string {
	t.Helper()
	names, err := OS().ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

func TestWALRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	r := shard.Router{Shards: 3}
	// 90 offers in batches of 7 snapshot after 35 and 70 records,
	// leaving three batches — three one-batch segments — after the last
	// snapshot.
	o := Options{Dir: dir, Router: r, SegmentBytes: 1, SnapshotEvery: 30, SyncSnapshots: true}
	w := openTestWAL(t, o)
	mem := NewMemory(r)
	for _, b := range batches(fleet(t, 2, 90), 7) {
		if _, _, err := w.Add(context.Background(), b); err != nil {
			t.Fatal(err)
		}
		mem.Add(context.Background(), b)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var snaps, logs []uint64
	for _, name := range dirNames(t, dir) {
		n, kind, ok := parseName(name)
		if !ok {
			t.Fatalf("foreign file %q in WAL dir", name)
		}
		if kind == kindSnapshot {
			snaps = append(snaps, n)
		} else {
			logs = append(logs, n)
		}
	}
	if len(snaps) != 1 {
		t.Fatalf("found %d snapshots after compaction, want 1 (%v)", len(snaps), dirNames(t, dir))
	}
	for _, n := range logs {
		if n < snaps[0] {
			t.Fatalf("segment %d survived compaction below snapshot %d", n, snaps[0])
		}
	}
	if len(logs) != 3 {
		t.Fatalf("SegmentBytes=1 left %d segments after the last snapshot, want 3 (%v)", len(logs), dirNames(t, dir))
	}
	for _, n := range logs {
		if info, err := os.Stat(filepath.Join(dir, segName(n))); err != nil || info.Size() <= logHeaderLen {
			t.Fatalf("segment %d holds no records (%v, %v)", n, info, err)
		}
	}

	re := openTestWAL(t, o)
	defer re.Close()
	storesEqual(t, re, mem)
	if re.Seq() != mem.Seq() {
		t.Fatalf("replayed seq %d, want %d", re.Seq(), mem.Seq())
	}
	if st := re.Stats(); st.SnapshotRecords == 0 {
		t.Fatalf("replay did not use the snapshot: %+v", st)
	}
}

// TestWALResetDurable pins the satellite requirement: a reset rewrites
// the persistent state, so pre-reset offers cannot resurrect on reboot.
func TestWALResetDurable(t *testing.T) {
	dir := t.TempDir()
	r := shard.Router{Shards: 2}
	w := openTestWAL(t, Options{Dir: dir, Router: r})
	if _, _, err := w.Add(context.Background(), fleet(t, 3, 40)); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(context.Background()); err != nil {
		t.Fatal(err)
	}
	post := fleet(t, 4, 5)
	w.Add(context.Background(), post)
	mem := NewMemory(r)
	mem.Add(context.Background(), post)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTestWAL(t, Options{Dir: dir, Router: r})
	defer re.Close()
	if got := shard.Flatten(re.Snapshot()); len(got) != len(post) {
		t.Fatalf("reboot resurrected offers: %d stored, want %d", len(got), len(post))
	}
	if !reflect.DeepEqual(re.Snapshot(), mem.Snapshot()) {
		t.Fatal("post-reset offers diverge after reboot")
	}
	// The reset must also have compacted: no pre-reset record should
	// even be read at boot.
	if st := re.Stats(); st.SnapshotRecords != 0 || st.Records != len(post) {
		t.Fatalf("boot read pre-reset history: %+v", st)
	}
}

// finalSegment returns the path of the highest-numbered log segment.
func finalSegment(t *testing.T, dir string) string {
	t.Helper()
	var best string
	var bestN uint64
	for _, name := range dirNames(t, dir) {
		if n, kind, ok := parseName(name); ok && kind == kindLog && (best == "" || n > bestN) {
			best, bestN = name, n
		}
	}
	if best == "" {
		t.Fatal("no log segment found")
	}
	return filepath.Join(dir, best)
}

func TestWALTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	r := shard.Router{Shards: 2}
	w := openTestWAL(t, Options{Dir: dir, Router: r})
	offers := fleet(t, 5, 12)
	if _, _, err := w.Add(context.Background(), offers); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a few garbage bytes past the last
	// complete record.
	seg := finalSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := openTestWAL(t, Options{Dir: dir, Router: r})
	if st := re.Stats(); st.DroppedBytes != 3 {
		t.Fatalf("DroppedBytes = %d, want 3", st.DroppedBytes)
	}
	if re.Len() != len(offers) {
		t.Fatalf("torn tail cost %d offers", len(offers)-re.Len())
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	// The tear was truncated away: the next boot is clean.
	re2 := openTestWAL(t, Options{Dir: dir, Router: r})
	defer re2.Close()
	if st := re2.Stats(); st.DroppedBytes != 0 {
		t.Fatalf("torn tail not repaired: DroppedBytes = %d on second boot", st.DroppedBytes)
	}
}

func TestWALMidLogCorruptionLoud(t *testing.T) {
	dir := t.TempDir()
	r := shard.Router{Shards: 2}
	w := openTestWAL(t, Options{Dir: dir, Router: r})
	if _, _, err := w.Add(context.Background(), fleet(t, 6, 10)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := finalSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the first record's payload: far from the tail, so
	// this must read as corruption, not as a torn tail.
	data[logHeaderLen+frameHeaderLen+2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(Options{Dir: dir, Router: r}); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("mid-log corruption opened with error %v, want ErrCorruptLog", err)
	}
}

func TestWALForeignDirRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(0)), []byte("not a log at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(Options{Dir: dir, Router: shard.Router{Shards: 1}}); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("foreign file opened with error %v, want ErrCorruptLog", err)
	}
}

// TestWALDegradedOnWriteFailure drives the graceful-degradation path: a
// dead disk flips the store read-only instead of crashing or lying.
func TestWALDegradedOnWriteFailure(t *testing.T) {
	dir := t.TempDir()
	r := shard.Router{Shards: 2}
	ffs := &FaultFS{Inner: OS()}
	w := openTestWAL(t, Options{Dir: dir, Router: r, FS: ffs})
	first := fleet(t, 7, 8)
	if _, _, err := w.Add(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	// Everything from here on fails at the disk.
	ffs.FailWriteAt = 1
	ffs.FailSyncAt = 1

	_, _, err := w.Add(context.Background(), fleet(t, 8, 4))
	if !errors.Is(err, ErrDegraded) || !errors.Is(w.Err(), ErrInjected) {
		t.Fatalf("failed add: err %v, store err %v", err, w.Err())
	}
	if w.Len() != len(first) {
		t.Fatalf("failed batch applied: len %d, want %d", w.Len(), len(first))
	}
	// Sticky: later mutations are refused outright, reads keep serving.
	if _, _, err := w.Add(context.Background(), fleet(t, 9, 2)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("add on degraded store: %v, want ErrDegraded", err)
	}
	if _, _, err := w.Delete(context.Background(), []string{"s7-0001"}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("delete on degraded store: %v, want ErrDegraded", err)
	}
	if err := w.Reset(context.Background()); !errors.Is(err, ErrDegraded) {
		t.Fatalf("reset on degraded store: %v, want ErrDegraded", err)
	}
	if got := len(shard.Flatten(w.Snapshot())); got != len(first) {
		t.Fatalf("degraded reads broken: %d offers, want %d", got, len(first))
	}
	w.Close()

	// The failed batch never reached the disk, so a reboot (with the
	// disk healthy again) serves exactly the pre-failure state.
	mem := NewMemory(r)
	mem.Add(context.Background(), first)
	re := openTestWAL(t, Options{Dir: dir, Router: r})
	defer re.Close()
	storesEqual(t, re, mem)
	if re.Err() != nil {
		t.Fatalf("reopened store is degraded: %v", re.Err())
	}
}

// TestWALDegradedOnSyncFailure covers the fsync-failure flavor: the
// append landed in the page cache but durability is unknown, so the
// store degrades all the same.
func TestWALDegradedOnSyncFailure(t *testing.T) {
	dir := t.TempDir()
	r := shard.Router{Shards: 2}
	ffs := &FaultFS{Inner: OS(), FailSyncAt: 2}
	w := openTestWAL(t, Options{Dir: dir, Router: r, FS: ffs})
	first := fleet(t, 10, 6)
	if _, _, err := w.Add(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Add(context.Background(), fleet(t, 11, 3)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("add past sync failure: %v, want ErrDegraded", err)
	}
	if w.Len() != len(first) {
		t.Fatalf("unsynced batch applied: len %d, want %d", w.Len(), len(first))
	}
	w.Close()
}

func TestWALFsyncInterval(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{Inner: OS()}
	w := openTestWAL(t, Options{
		Dir: dir, Router: shard.Router{Shards: 1},
		FS: ffs, Fsync: FsyncInterval, FsyncInterval: time.Millisecond,
	})
	if _, _, err := w.Add(context.Background(), fleet(t, 12, 3)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ffs.Syncs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval sync never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALHammer runs concurrent ingest, deletes, resets-free snapshot
// pressure and compaction on one store, then proves the log it left
// behind still replays to exactly the final in-memory state. Run with
// -race this doubles as the locking test for the WAL's background
// snapshot and sync machinery.
func TestWALHammer(t *testing.T) {
	dir := t.TempDir()
	r := shard.Router{Shards: 4}
	w := openTestWAL(t, Options{
		Dir: dir, Router: r,
		Fsync:         FsyncInterval,
		FsyncInterval: time.Millisecond,
		SegmentBytes:  4 << 10,
		SnapshotEvery: 50, // constant snapshot + compaction churn
	})
	const writers = 4
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			offers := fleet(t, int64(100+g), 120)
			for _, b := range batches(offers, 6) {
				if _, _, err := w.Add(context.Background(), b); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
			// Delete a slice of what this writer just added, so delete
			// records interleave with everyone else's appends.
			var ids []string
			for _, f := range offers[:30] {
				ids = append(ids, f.ID)
			}
			if _, _, err := w.Delete(context.Background(), ids); err != nil {
				t.Errorf("writer %d delete: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	want := w.Snapshot()
	wantSeq := w.Seq()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTestWAL(t, Options{Dir: dir, Router: r})
	defer re.Close()
	if !reflect.DeepEqual(re.Snapshot(), want) {
		t.Fatalf("replay diverges from live store: %v vs %v", re.ShardLens(), shardLensOf(want))
	}
	if re.Seq() != wantSeq {
		t.Fatalf("replayed seq %d, want %d", re.Seq(), wantSeq)
	}
	if re.Len() != writers*(120-30) {
		t.Fatalf("final len %d, want %d", re.Len(), writers*(120-30))
	}
}

func shardLensOf(parts [][]shard.Entry) []int {
	lens := make([]int, len(parts))
	for i, p := range parts {
		lens[i] = len(p)
	}
	return lens
}

func TestWALOpenRequiresDir(t *testing.T) {
	if _, err := OpenWAL(Options{}); err == nil || !strings.Contains(err.Error(), "Dir") {
		t.Fatalf("OpenWAL without Dir: %v", err)
	}
}
