// Crash-matrix tests (external test package: they drive the WAL purely
// through its public surface plus the on-disk format, and compare
// against the engine/server stack, which OpenWAL's own package cannot
// import).
package persist_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	flex "flexmeasures"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/persist"
	"flexmeasures/internal/server"
	"flexmeasures/internal/shard"
	"flexmeasures/internal/timeseries"
	"flexmeasures/internal/workload"
)

// segmentHeaderLen is the public on-disk fact the matrix needs: every
// segment starts with the 4-byte magic plus a kind byte.
const segmentHeaderLen = 5

func crashFleet(t *testing.T, seed int64, n int) []*flexoffer.FlexOffer {
	t.Helper()
	offers, err := workload.Population(rand.New(rand.NewSource(seed)), n, 2, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range offers {
		f.ID = fmt.Sprintf("c%d-%04d", seed, i)
	}
	return offers
}

// copyDir clones the WAL directory into a fresh tempdir — the "disk
// image at the moment of the crash".
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// scheduleBytes renders the exact /v1/schedule body the server would
// stream for this store state, through a shards×workers engine.
func scheduleBytes(t *testing.T, parts [][]flex.RoutedOffer, shards, workers int) []byte {
	t.Helper()
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	se := flex.NewSharded(shards, flex.WithWorkers(workers), flex.WithSafe(true))
	defer se.Close()
	const horizon = 48
	level := server.FlatTargetLevelRouted(parts, horizon, -1)
	target := timeseries.Constant(0, horizon, level)
	res, err := se.PipelineRouted(context.Background(), parts, target)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := server.StreamScheduleResponse(&buf, server.BuildScheduleResponse(total, res, target, horizon, level)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCrashMatrix kills a WAL-backed store at every record boundary —
// and inside records — by truncating its log to that point, reboots
// from the truncated image, and pins the replayed store bit-identical
// to an in-memory store fed the same mutation prefix. Spot cuts also
// pin the /v1/schedule bytes against the uncrashed server's.
func TestCrashMatrix(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			r := shard.Router{Shards: shards}
			opts := persist.Options{
				Dir: dir, Router: r,
				Fsync:         persist.FsyncOff,
				SnapshotEvery: -1,      // keep every record in one inspectable log
				SegmentBytes:  1 << 30, // no rotation either
			}
			w, err := persist.OpenWAL(opts)
			if err != nil {
				t.Fatal(err)
			}
			mem := persist.NewMemory(r)
			var muts []shard.Mutation
			apply := func(ms []shard.Mutation, _ int, err error) {
				if err != nil {
					t.Fatal(err)
				}
				muts = append(muts, ms...)
			}
			offers := crashFleet(t, 1, 30)
			apply(w.Add(context.Background(), offers[:12]))
			mem.Add(context.Background(), offers[:12])
			apply(w.Add(context.Background(), offers[12:])) // rest of the fleet
			mem.Add(context.Background(), offers[12:])
			apply(w.Add(context.Background(), offers[5:9])) // re-ingest: replace records
			mem.Add(context.Background(), offers[5:9])
			ids := []string{offers[0].ID, offers[20].ID}
			apply(w.Delete(context.Background(), ids))
			mem.Delete(context.Background(), ids)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			// Locate the single log segment and derive the record
			// boundaries from the length fields alone.
			ents, err := os.ReadDir(dir)
			if err != nil || len(ents) != 1 {
				t.Fatalf("expected exactly one segment, found %v (%v)", ents, err)
			}
			seg := filepath.Join(dir, ents[0].Name())
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			boundaries := []int64{segmentHeaderLen}
			for off := int64(segmentHeaderLen); off < int64(len(data)); {
				off += 8 + int64(binary.LittleEndian.Uint32(data[off:]))
				boundaries = append(boundaries, off)
			}
			if len(boundaries)-1 != len(muts) {
				t.Fatalf("log frames %d records, mutation oracle has %d", len(boundaries)-1, len(muts))
			}

			reboot := func(cut int64) persist.Store {
				img := copyDir(t, dir)
				if err := os.Truncate(filepath.Join(img, ents[0].Name()), cut); err != nil {
					t.Fatal(err)
				}
				re, err := persist.OpenWAL(persist.Options{Dir: img, Router: r})
				if err != nil {
					t.Fatalf("cut %d: reboot failed: %v", cut, err)
				}
				return re
			}
			prefix := func(k int) *shard.Stores {
				st := shard.NewStores(r)
				if err := st.Apply(muts[:k]); err != nil {
					t.Fatalf("prefix %d: %v", k, err)
				}
				return st
			}

			for k, cut := range boundaries {
				// The boundary cut itself plus cuts inside the next
				// record (partial header, partial payload): all must
				// reboot to exactly the first k mutations.
				cuts := []int64{cut}
				if cut < int64(len(data)) {
					for _, delta := range []int64{3, 9} {
						if cut+delta < int64(len(data)) && k < len(boundaries)-1 && cut+delta < boundaries[k+1] {
							cuts = append(cuts, cut+delta)
						}
					}
				}
				want := prefix(k)
				for _, c := range cuts {
					re := reboot(c)
					if !reflect.DeepEqual(re.Snapshot(), want.Snapshot()) {
						re.Close()
						t.Fatalf("cut %d (record %d): replayed store diverges from prefix", c, k)
					}
					if got, wantSeq := seqOf(re), want.Seq(); got != wantSeq {
						re.Close()
						t.Fatalf("cut %d: replayed seq %d, want %d", c, got, wantSeq)
					}
					re.Close()
				}
			}

			// Spot-check the serving bytes, not just the store layout:
			// a reboot from mid-history must schedule exactly like a
			// server that only ever saw that prefix — and a reboot from
			// the full log exactly like the uncrashed server.
			for _, k := range []int{len(muts) / 2, len(muts)} {
				re := reboot(boundaries[k])
				got := scheduleBytes(t, re.Snapshot(), shards, 2)
				want := scheduleBytes(t, prefix(k).Snapshot(), shards, 2)
				re.Close()
				if !bytes.Equal(got, want) {
					t.Fatalf("prefix %d: schedule bytes diverge after reboot", k)
				}
			}
		})
	}
}

func seqOf(s persist.Store) uint64 {
	switch v := s.(type) {
	case *persist.WALStore:
		return v.Seq()
	case *persist.MemStore:
		return v.Seq()
	}
	return 0
}

// TestCrashDuringSnapshot kills the writer at every write/sync of a
// scenario that includes snapshot publication and compaction, then
// reboots from whatever the disk holds. The snapshot's tmp+rename
// protocol means every kill point must recover the full pre-kill
// state — a half-written snapshot is ignored, a published one replaces
// exactly the records it covers.
func TestCrashDuringSnapshot(t *testing.T) {
	r := shard.Router{Shards: 2}
	scenario := func(ffs *persist.FaultFS, dir string) {
		w, err := persist.OpenWAL(persist.Options{
			Dir: dir, Router: r, FS: ffs,
			SnapshotEvery: 8, SyncSnapshots: true, SegmentBytes: 1 << 30,
		})
		if err != nil {
			return // the kill landed in open/replay; the image still matters
		}
		offers := crashFleet(t, 2, 30)
		for i := 0; i+5 <= len(offers); i += 5 {
			if _, _, err := w.Add(context.Background(), offers[i:i+5]); err != nil {
				break // degraded mid-scenario: stop writing, like a real server
			}
		}
		w.Close()
	}

	// Count the writes and syncs of a clean run, then re-run killing at
	// each one.
	counter := &persist.FaultFS{Inner: persist.OS()}
	cleanDir := t.TempDir()
	scenario(counter, cleanDir)
	clean, err := persist.OpenWAL(persist.Options{Dir: cleanDir, Router: r})
	if err != nil {
		t.Fatal(err)
	}
	wantLen := clean.Len()
	clean.Close()
	if counter.Writes() < 10 {
		t.Fatalf("scenario too small: only %d writes", counter.Writes())
	}

	for _, short := range []bool{false, true} {
		for at := 1; at <= counter.Writes(); at++ {
			dir := t.TempDir()
			scenario(&persist.FaultFS{Inner: persist.OS(), FailWriteAt: at, ShortWrite: short}, dir)
			re, err := persist.OpenWAL(persist.Options{Dir: dir, Router: r})
			if err != nil {
				t.Fatalf("kill at write %d (short=%t): reboot failed: %v", at, short, err)
			}
			// The kill can land anywhere in the ingest stream, so the
			// recovered store is some per-record prefix of it — never
			// more than the clean run, never torn mid-offer, and always
			// schedulable.
			if re.Len() > wantLen {
				t.Fatalf("kill at write %d: recovered %d offers, clean run had %d", at, re.Len(), wantLen)
			}
			if re.Len() > 0 {
				_ = scheduleBytes(t, re.Snapshot(), 2, 2)
			}
			re.Close()
		}
		if short {
			// A buffered writer puts many records — a whole small
			// snapshot — into one write, so halving it covers one tear
			// per write. Tear every write at offsets spread across it
			// too.
			for at, size := range counter.WriteSizes() {
				for _, keep := range tearOffsets(size) {
					dir := t.TempDir()
					scenario(&persist.FaultFS{Inner: persist.OS(), FailWriteAt: at + 1, ShortWrite: true, ShortWriteBytes: keep}, dir)
					re, err := persist.OpenWAL(persist.Options{Dir: dir, Router: r})
					if err != nil {
						t.Fatalf("tear of write %d at byte %d of %d: reboot failed: %v", at+1, keep, size, err)
					}
					if re.Len() > wantLen {
						t.Fatalf("tear of write %d at byte %d: recovered %d offers, clean run had %d", at+1, keep, re.Len(), wantLen)
					}
					if re.Len() > 0 {
						_ = scheduleBytes(t, re.Snapshot(), 2, 2)
					}
					re.Close()
				}
			}
		}
		for at := 1; at <= counter.Syncs(); at++ {
			dir := t.TempDir()
			scenario(&persist.FaultFS{Inner: persist.OS(), FailSyncAt: at}, dir)
			re, err := persist.OpenWAL(persist.Options{Dir: dir, Router: r})
			if err != nil {
				t.Fatalf("kill at sync %d: reboot failed: %v", at, err)
			}
			if re.Len() > wantLen {
				t.Fatalf("kill at sync %d: recovered %d offers, clean run had %d", at, re.Len(), wantLen)
			}
			re.Close()
		}
	}
}

// tearOffsets picks the byte counts a torn write of size bytes keeps:
// inside the first frame header and record, then spread evenly across
// the write up to its last byte.
func tearOffsets(size int) []int {
	var out []int
	seen := map[int]bool{}
	add := func(k int) {
		if k > 0 && k < size && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for _, k := range []int{1, 4, 5, 8, 9, 13} {
		add(k)
	}
	for i := 1; i < 12; i++ {
		add(size * i / 12)
	}
	add(size - 1)
	return out
}
