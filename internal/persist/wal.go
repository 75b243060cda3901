package persist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strings"
	"sync"
	"time"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/obs"
	"flexmeasures/internal/pool"
	"flexmeasures/internal/shard"
)

// FsyncPolicy decides when the WAL forces appended records to stable
// storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append batch: a 2xx ingest response
	// means the records are on disk.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background timer: a crash loses at most
	// the last interval's records, in exchange for append throughput.
	FsyncInterval
	// FsyncOff never calls fsync: durability is whatever the OS page
	// cache survives. Process crashes lose nothing; power cuts may.
	FsyncOff
)

// ParseFsyncPolicy parses the flexd -fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf(`persist: fsync policy must be "always", "interval" or "off", got %q`, s)
}

// String names the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("fsync(%d)", int(p))
}

// Options configures OpenWAL.
type Options struct {
	// Dir is the data directory (created if missing). Required.
	Dir string
	// Router shapes the store the log replays into; it must match the
	// serving engine's shard count.
	Router shard.Router
	// FS is the filesystem seam; nil means the real one.
	FS FS
	// Fsync is the sync policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the timer period under FsyncInterval (default
	// 100ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 64 MiB).
	SegmentBytes int64
	// SnapshotEvery takes a snapshot and compacts the log every this
	// many appended records (default 100000; negative disables).
	SnapshotEvery int
	// SyncSnapshots writes snapshots inside the mutating call instead
	// of in the background — deterministic file layouts for tests.
	SyncSnapshots bool
	// Executor fans the replay offer decode out across a worker pool
	// (nil: serial decode).
	Executor pool.Executor
	// Metrics, when non-nil, receives wal_append/wal_fsync latency
	// observations for work that runs outside any request trace —
	// interval syncs, segment seals, snapshot syncs. Request-path
	// appends report through the request's trace instead (the two
	// sinks are the same object when flexd wires its tracer here).
	Metrics *obs.Metrics
}

// ReplayStats describes one boot-time recovery.
type ReplayStats struct {
	// SnapshotRecords is how many entries the newest snapshot restored.
	SnapshotRecords int
	// Records is how many log records were replayed on top.
	Records int
	// Segments is how many log segments were read.
	Segments int
	// Bytes is the total bytes read.
	Bytes int64
	// DroppedBytes is the torn tail truncated away, if any.
	DroppedBytes int64
	// Duration is the wall time of the recovery.
	Duration time.Duration
}

// WALStore is the durable offer store: a shard.Stores whose every
// mutation is first appended to a write-ahead log. Records are framed
// with length + CRC-32C and carry the op, shard and sequence number
// plus the offer in the FXO1/FXO2 binary codec; replaying them through
// shard.Stores.Apply — the same code the live path uses — reproduces
// the store bit-identically, copy-on-write layout included.
//
// The log is segmented (SegmentBytes), periodically folded into a
// snapshot (itself just a compacted segment of add records plus the
// sequence counter) and compacted. On boot, the newest snapshot loads
// first, then the segments after it replay with the offer decode
// fanned out over the worker pool. A truncated or CRC-failing final
// record — the shape a crash leaves — is dropped and repaired; any
// earlier corruption fails Open loudly.
//
// Failure is sticky: the first write or sync error flips the store
// into a degraded state in which every further mutation is refused
// (Err reports the cause) while reads keep serving — flexd maps this
// to 503-on-ingest, read-only otherwise.
type WALStore struct {
	o  Options
	fs FS
	st *shard.Stores

	// mu serializes mutations and the segment lifecycle. Stage → append
	// → apply runs under it, so the log's record order is exactly the
	// store's mutation order — the invariant replay depends on.
	mu         sync.Mutex
	active     File
	activeName string
	activeSize int64
	nextSeg    uint64
	sinceSnap  int
	snapBusy   bool
	closed     bool
	// recs is the record buffer appendLocked frames each batch into,
	// kept for the next batch unless a bulk load grew it past
	// keptRecordBytes.
	recs []byte

	errMu    sync.Mutex
	firstErr error

	snapWG   sync.WaitGroup
	tickWG   sync.WaitGroup
	stopTick chan struct{}

	stats ReplayStats
}

// Segment header: magic + kind byte; snapshots append the sequence
// counter as a uvarint.
const (
	walMagic     = "FXW1"
	kindLog      = byte('L')
	kindSnapshot = byte('S')
	logHeaderLen = 5
)

// ErrCorruptLog marks unrecoverable log damage found during Open —
// anything beyond a torn final record. Refusing to start beats serving
// a silently incomplete offer book.
var ErrCorruptLog = errors.New("persist: corrupt WAL")

// ErrDegraded wraps the first write failure; every refused mutation on
// a degraded store returns an error chaining to it.
var ErrDegraded = errors.New("persist: WAL degraded")

// OpenWAL opens (or creates) the WAL in o.Dir, replays it into a fresh
// store and repairs a torn tail. The next log segment is created by the
// first append, so a boot that appends nothing leaves no empty segment
// behind for later boots to scan.
func OpenWAL(o Options) (*WALStore, error) {
	if o.Dir == "" {
		return nil, errors.New("persist: Options.Dir is required")
	}
	if o.FS == nil {
		o.FS = OS()
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 100_000
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if err := o.FS.MkdirAll(o.Dir); err != nil {
		return nil, fmt.Errorf("persist: creating %s: %w", o.Dir, err)
	}
	w := &WALStore{o: o, fs: o.FS, st: shard.NewStores(o.Router)}
	if err := w.replay(); err != nil {
		return nil, err
	}
	if o.Fsync == FsyncInterval {
		w.stopTick = make(chan struct{})
		w.tickWG.Add(1)
		go w.syncLoop()
	}
	return w, nil
}

func segName(n uint64) string  { return fmt.Sprintf("wal-%016d.log", n) }
func snapName(n uint64) string { return fmt.Sprintf("wal-%016d.snap", n) }

// parseName inverts segName/snapName; ok is false for foreign files.
func parseName(name string) (n uint64, kind byte, ok bool) {
	var rest string
	switch {
	case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
		rest, kind = name[4:len(name)-4], kindLog
	case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".snap"):
		rest, kind = name[4:len(name)-5], kindSnapshot
	default:
		return 0, 0, false
	}
	if len(rest) == 0 {
		return 0, 0, false
	}
	for _, c := range rest {
		if c < '0' || c > '9' {
			return 0, 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, kind, true
}

// readFile reads a whole segment or snapshot into one buffer sized from
// the file's length (when the FS's reader reports it), so a large
// snapshot is read without repeated doubling.
func (w *WALStore) readFile(name string) ([]byte, error) {
	f, err := w.fs.Open(join(w.o.Dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var buf bytes.Buffer
	if st, ok := f.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if info, err := st.Stat(); err == nil {
			// MinRead of headroom lets ReadFrom see io.EOF without growing.
			buf.Grow(int(info.Size()) + bytes.MinRead)
		}
	}
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// replay rebuilds the store from disk: newest snapshot first, then
// every log segment after it, in order.
func (w *WALStore) replay() error {
	start := time.Now()
	names, err := w.fs.ReadDir(w.o.Dir)
	if err != nil {
		return fmt.Errorf("persist: listing %s: %w", w.o.Dir, err)
	}
	var logs []uint64
	var snaps []uint64
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			// A snapshot whose writer died before the rename; its data is
			// fully covered by the segments it would have replaced.
			_ = w.fs.Remove(join(w.o.Dir, name))
			continue
		}
		n, kind, ok := parseName(name)
		if !ok {
			continue
		}
		if kind == kindSnapshot {
			snaps = append(snaps, n)
		} else {
			logs = append(logs, n)
		}
		if n >= w.nextSeg {
			w.nextSeg = n + 1
		}
	}
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	var snapNum uint64
	if len(snaps) > 0 {
		snapNum = snaps[len(snaps)-1]
		if err := w.replaySnapshot(snapName(snapNum)); err != nil {
			return err
		}
	}

	var recs []rawRecord
	for i, n := range logs {
		if len(snaps) > 0 && n <= snapNum {
			continue // folded into the snapshot already
		}
		final := i == len(logs)-1
		recs, err = w.scanLog(segName(n), final, recs)
		if err != nil {
			return err
		}
		w.stats.Segments++
	}
	muts, err := w.decodeAll(recs)
	if err != nil {
		return err
	}
	w.reserve(recs)
	if err := w.st.Apply(muts); err != nil {
		return fmt.Errorf("%w: replay rejected: %v", ErrCorruptLog, err)
	}
	w.stats.Records = len(recs)
	w.stats.Duration = time.Since(start)
	return nil
}

// replaySnapshot loads a snapshot segment. Snapshots become visible
// only through an atomic rename, so unlike a log tail, any framing
// damage here is corruption, never a tear.
func (w *WALStore) replaySnapshot(name string) error {
	data, err := w.readFile(name)
	if err != nil {
		return fmt.Errorf("persist: reading snapshot %s: %w", name, err)
	}
	w.stats.Bytes += int64(len(data))
	if len(data) < logHeaderLen || string(data[:4]) != walMagic || data[4] != kindSnapshot {
		return fmt.Errorf("%w: %s is not a snapshot segment", ErrCorruptLog, name)
	}
	seq, n := binary.Uvarint(data[logHeaderLen:])
	if n <= 0 {
		return fmt.Errorf("%w: %s: bad sequence counter", ErrCorruptLog, name)
	}
	recs, _, err := scanFrames(data[logHeaderLen+n:], nil)
	if err != nil {
		return fmt.Errorf("%w: snapshot %s: %v", ErrCorruptLog, name, err)
	}
	for i, r := range recs {
		if r.op != shard.OpAdd {
			return fmt.Errorf("%w: snapshot %s: record %d is %s, want add", ErrCorruptLog, name, i, r.op)
		}
	}
	muts, err := w.decodeAll(recs)
	if err != nil {
		return err
	}
	w.reserve(recs)
	if err := w.st.Apply(muts); err != nil {
		return fmt.Errorf("%w: snapshot %s rejected: %v", ErrCorruptLog, name, err)
	}
	w.st.SetSeq(seq)
	w.stats.SnapshotRecords = len(recs)
	return nil
}

// scanLog frame-scans one log segment, tolerating — and repairing — a
// torn tail on the final segment only.
func (w *WALStore) scanLog(name string, final bool, recs []rawRecord) ([]rawRecord, error) {
	data, err := w.readFile(name)
	if err != nil {
		return nil, fmt.Errorf("persist: reading segment %s: %w", name, err)
	}
	w.stats.Bytes += int64(len(data))
	if len(data) < logHeaderLen {
		if final {
			// Crashed before the header landed: an empty segment.
			w.stats.DroppedBytes += int64(len(data))
			return recs, w.fs.Remove(join(w.o.Dir, name))
		}
		return nil, fmt.Errorf("%w: segment %s truncated mid-log", ErrCorruptLog, name)
	}
	if string(data[:4]) != walMagic || data[4] != kindLog {
		return nil, fmt.Errorf("%w: %s is not a log segment", ErrCorruptLog, name)
	}
	recs, goodLen, err := scanFrames(data[logHeaderLen:], recs)
	switch {
	case err == nil:
	case errors.Is(err, errTornRecord) && final:
		// The crash shape: drop the tear and truncate it away so the
		// segment is clean for every later boot.
		dropped := int64(len(data)) - logHeaderLen - goodLen
		w.stats.DroppedBytes += dropped
		if terr := w.fs.Truncate(join(w.o.Dir, name), logHeaderLen+goodLen); terr != nil {
			return nil, fmt.Errorf("persist: repairing torn tail of %s: %w", name, terr)
		}
	case errors.Is(err, errTornRecord):
		return nil, fmt.Errorf("%w: segment %s torn mid-log: %v", ErrCorruptLog, name, err)
	default:
		return nil, fmt.Errorf("%w: segment %s: %v", ErrCorruptLog, name, err)
	}
	return recs, nil
}

// decodeAll decodes the offer bodies of scanned records, fanned out
// over the executor when one is configured — the ingest-style parallel
// replay. Application order is unaffected: results land in per-index
// slots.
func (w *WALStore) decodeAll(recs []rawRecord) ([]shard.Mutation, error) {
	muts := make([]shard.Mutation, len(recs))
	errs := make([]error, len(recs))
	decode := func(i int) { muts[i], errs[i] = decodeMutation(recs[i]) }
	if w.o.Executor != nil {
		w.o.Executor.ForEach(len(recs), 0, 0, decode)
	} else {
		for i := range recs {
			decode(i)
		}
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrCorruptLog, i, err)
		}
	}
	return muts, nil
}

// reserve sizes the store's shard slices and ID index for the add
// records about to be applied.
func (w *WALStore) reserve(recs []rawRecord) {
	adds := make([]int, w.st.Shards())
	for _, r := range recs {
		if r.op == shard.OpAdd && r.shardIndex >= 0 && r.shardIndex < len(adds) {
			adds[r.shardIndex]++
		}
	}
	w.st.Reserve(adds)
}

// openActiveLocked creates the next log segment and stamps its header.
// appendLocked calls it when no segment is active: after boot, after a
// rotation and after a snapshot.
func (w *WALStore) openActiveLocked() error {
	name := segName(w.nextSeg)
	w.nextSeg++
	f, err := w.fs.Create(join(w.o.Dir, name))
	if err != nil {
		return w.fail(fmt.Errorf("persist: creating segment %s: %w", name, err))
	}
	if _, err := f.Write([]byte{walMagic[0], walMagic[1], walMagic[2], walMagic[3], kindLog}); err != nil {
		f.Close()
		return w.fail(fmt.Errorf("persist: writing header of %s: %w", name, err))
	}
	w.active, w.activeName, w.activeSize = f, name, logHeaderLen
	return nil
}

func (w *WALStore) closeActiveLocked() error {
	if w.active == nil {
		return nil
	}
	// Seal the segment: after this no timer will ever sync it again, so
	// flush it now unless the operator opted out of fsync entirely.
	if w.o.Fsync != FsyncOff {
		if err := w.timedSync(w.active); err != nil {
			w.active.Close()
			w.active = nil
			return w.fail(fmt.Errorf("persist: syncing %s: %w", w.activeName, err))
		}
	}
	err := w.active.Close()
	w.active, w.activeSize = nil, 0
	if err != nil {
		return w.fail(fmt.Errorf("persist: closing %s: %w", w.activeName, err))
	}
	return nil
}

// fail records the first failure and flips the store degraded. It
// needs only errMu, so it is safe with or without mu held.
func (w *WALStore) fail(err error) error {
	w.errMu.Lock()
	if w.firstErr == nil {
		w.firstErr = err
	}
	w.errMu.Unlock()
	return fmt.Errorf("%w: %v", ErrDegraded, err)
}

// Err reports the sticky degradation cause, nil while healthy.
func (w *WALStore) Err() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.firstErr
}

func (w *WALStore) healthyLocked() error {
	w.errMu.Lock()
	err := w.firstErr
	w.errMu.Unlock()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrDegraded, err)
	}
	if w.closed {
		return errors.New("persist: store is closed")
	}
	return nil
}

// keptRecordBytes is the largest record buffer a WALStore keeps
// between batches.
const keptRecordBytes = 256 << 10

// appendLocked frames and writes muts to the active segment, syncing
// per policy. The store is NOT applied here: log first, apply only
// after the log accepted the batch, so a failed append leaves memory
// and disk agreeing (both without the batch).
func (w *WALStore) appendLocked(ctx context.Context, muts []shard.Mutation) error {
	if len(muts) == 0 {
		return nil
	}
	t0 := time.Now()
	ctx, sp := obs.Start(ctx, obs.StageWALAppend)
	defer func() {
		if sp != nil {
			sp.End()
		} else {
			w.o.Metrics.Observe(obs.StageWALAppend, -1, time.Since(t0))
		}
	}()
	buf := w.recs[:0]
	var err error
	for _, m := range muts {
		if buf, err = appendRecord(buf, m); err != nil {
			return w.fail(err)
		}
	}
	if cap(buf) <= keptRecordBytes {
		w.recs = buf
	}
	if w.active == nil {
		if err := w.openActiveLocked(); err != nil {
			return err
		}
	}
	if _, err := w.active.Write(buf); err != nil {
		return w.fail(err)
	}
	if w.o.Fsync == FsyncAlways {
		s0 := time.Now()
		serr := w.active.Sync()
		w.observeSince(ctx, obs.StageWALFsync, s0)
		if serr != nil {
			return w.fail(serr)
		}
	}
	w.activeSize += int64(len(buf))
	w.sinceSnap += len(muts)
	return nil
}

// observeSince files a stage interval either into the request's trace
// (nesting under the current span) or, without one, directly into the
// configured metrics sink — the two sinks are the same histograms in
// a fully wired flexd, so the split only decides whether a span shows
// up in /debug/traces.
func (w *WALStore) observeSince(ctx context.Context, stage string, t0 time.Time) {
	if obs.TraceFrom(ctx) != nil {
		obs.RecordSince(ctx, stage, t0)
		return
	}
	w.o.Metrics.Observe(stage, -1, time.Since(t0))
}

// timedSync syncs f, reporting the fsync latency to the metrics sink.
// For syncs with no request in sight (timers, seals, snapshots).
func (w *WALStore) timedSync(f File) error {
	t0 := time.Now()
	err := f.Sync()
	w.o.Metrics.Observe(obs.StageWALFsync, -1, time.Since(t0))
	return err
}

// mutate runs the shared stage → append → apply sequence. The ctx is
// observability-only: it attaches the append/fsync latency to the
// request's trace and is never consulted for cancellation.
func (w *WALStore) mutate(ctx context.Context, stage func() []shard.Mutation) ([]shard.Mutation, int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.healthyLocked(); err != nil {
		return nil, w.st.Len(), err
	}
	muts := stage()
	if err := w.appendLocked(ctx, muts); err != nil {
		return nil, w.st.Len(), err
	}
	if err := w.st.Apply(muts); err != nil {
		// Stage and Apply agree by construction; reaching this is a bug.
		panic(err)
	}
	w.maybeRollLocked()
	return muts, w.st.Len(), nil
}

// Add stages, logs and applies an ingest batch (see shard.Stores.Add
// for the routing and last-write-wins rules). On error the batch is
// neither logged nor applied and the store is degraded.
func (w *WALStore) Add(ctx context.Context, offers []*flexoffer.FlexOffer) ([]shard.Mutation, int, error) {
	return w.mutate(ctx, func() []shard.Mutation { return w.st.Stage(offers) })
}

// Delete stages, logs and applies removal of the identified offers.
func (w *WALStore) Delete(ctx context.Context, ids []string) ([]shard.Mutation, int, error) {
	return w.mutate(ctx, func() []shard.Mutation { return w.st.StageDelete(ids) })
}

// Reset empties the store durably: a reset record lands in the log
// first — so deleted offers cannot resurrect even if everything after
// this line is skipped by a crash — then the segment rotates and an
// empty snapshot compacts the history away.
func (w *WALStore) Reset(ctx context.Context) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.healthyLocked(); err != nil {
		return err
	}
	if err := w.appendLocked(ctx, []shard.Mutation{{Op: shard.OpReset}}); err != nil {
		return err
	}
	w.st.Reset()
	w.sinceSnap = 0
	if !w.snapBusy {
		return w.snapshotLocked(true)
	}
	return nil
}

// maybeRollLocked seals an oversized active segment (the next append
// opens its successor) and triggers the periodic snapshot.
func (w *WALStore) maybeRollLocked() {
	if w.o.SnapshotEvery > 0 && w.sinceSnap >= w.o.SnapshotEvery && !w.snapBusy {
		w.sinceSnap = 0
		_ = w.snapshotLocked(w.o.SyncSnapshots)
		return
	}
	if w.activeSize >= w.o.SegmentBytes {
		_ = w.closeActiveLocked()
	}
}

// snapshotLocked captures the current state, seals the log and takes
// the next segment number for the snapshot — so it sits after every
// record it covers and before the segment the next append opens — and
// writes the snapshot, synchronously or in the background. The
// captured parts are copy-on-write snapshots, so the background writer
// needs no further coordination with ingest.
func (w *WALStore) snapshotLocked(sync bool) error {
	parts := w.st.Snapshot()
	seq := w.st.Seq()
	if err := w.closeActiveLocked(); err != nil {
		return err
	}
	num := w.nextSeg
	w.nextSeg++
	if sync {
		return w.writeSnapshot(num, parts, seq)
	}
	w.snapBusy = true
	w.snapWG.Add(1)
	go func() {
		defer w.snapWG.Done()
		_ = w.writeSnapshot(num, parts, seq)
		w.mu.Lock()
		w.snapBusy = false
		w.mu.Unlock()
	}()
	return nil
}

// snapshotBufBytes is the size of the snapshot writer's writes.
const snapshotBufBytes = 1 << 20

// writeSnapshot persists parts + seq as snapshot num (tmp, sync,
// rename) and then compacts every older segment away. Only the rename
// publishes the snapshot, so a crash anywhere before it leaves the
// previous snapshot + segments authoritative.
func (w *WALStore) writeSnapshot(num uint64, parts [][]shard.Entry, seq uint64) error {
	name := snapName(num)
	tmp := name + ".tmp"
	err := func() error {
		f, err := w.fs.Create(join(w.o.Dir, tmp))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := encodeSnapshot(f, parts, seq); err != nil {
			return err
		}
		return w.timedSync(f)
	}()
	if err != nil {
		_ = w.fs.Remove(join(w.o.Dir, tmp))
		return w.fail(fmt.Errorf("persist: writing snapshot %s: %w", name, err))
	}
	if err := w.fs.Rename(join(w.o.Dir, tmp), join(w.o.Dir, name)); err != nil {
		return w.fail(fmt.Errorf("persist: publishing snapshot %s: %w", name, err))
	}
	w.compact(num)
	return nil
}

// encodeSnapshot writes a snapshot segment — header, sequence counter,
// then one add record per entry — to f in writes of about
// snapshotBufBytes. Records go out in global sequence order — the order
// a single unsharded store ingested them — because that is the only
// order Apply accepts, and it makes the snapshot a canonical replay
// stream rather than a dump of internal layout. Each shard's entries
// are already Seq-sorted (Apply enforces it), so the shards are merged
// rather than sorted.
func encodeSnapshot(f io.Writer, parts [][]shard.Entry, seq uint64) error {
	buf := make([]byte, 0, snapshotBufBytes+snapshotBufBytes/16)
	buf = append(append(buf, walMagic...), kindSnapshot)
	buf = binary.AppendUvarint(buf, seq)
	heads := make([]int, len(parts))
	for {
		next := -1
		for i, entries := range parts {
			if heads[i] < len(entries) && (next < 0 || entries[heads[i]].Seq < parts[next][heads[next]].Seq) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		e := parts[next][heads[next]]
		heads[next]++
		var err error
		if buf, err = appendRecord(buf, shard.Mutation{Op: shard.OpAdd, Shard: next, Seq: e.Seq, Offer: e.Offer}); err != nil {
			return err
		}
		if len(buf) >= snapshotBufBytes {
			if _, err := f.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := f.Write(buf)
	return err
}

// compact removes every segment and snapshot numbered below upto —
// all folded into snapshot upto. Best effort: a leftover file is
// re-candidate at the next snapshot and skipped by replay anyway.
func (w *WALStore) compact(upto uint64) {
	names, err := w.fs.ReadDir(w.o.Dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if n, _, ok := parseName(name); ok && n < upto {
			_ = w.fs.Remove(join(w.o.Dir, name))
		}
	}
}

// syncLoop is the FsyncInterval timer.
func (w *WALStore) syncLoop() {
	defer w.tickWG.Done()
	t := time.NewTicker(w.o.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.mu.Lock()
			if w.active != nil && w.healthyLocked() == nil {
				if err := w.timedSync(w.active); err != nil {
					_ = w.fail(fmt.Errorf("persist: interval sync of %s: %w", w.activeName, err))
				}
			}
			w.mu.Unlock()
		case <-w.stopTick:
			return
		}
	}
}

// Snapshot returns the per-shard entry lists (see shard.Stores.Snapshot).
func (w *WALStore) Snapshot() [][]shard.Entry { return w.st.Snapshot() }

// Len returns the total offer count.
func (w *WALStore) Len() int { return w.st.Len() }

// Shards returns the shard count.
func (w *WALStore) Shards() int { return w.st.Shards() }

// ShardLens returns the per-shard offer counts.
func (w *WALStore) ShardLens() []int { return w.st.ShardLens() }

// Seq returns the next sequence number (see shard.Stores.Seq).
func (w *WALStore) Seq() uint64 { return w.st.Seq() }

// Stats reports the boot-time recovery this store performed.
func (w *WALStore) Stats() ReplayStats { return w.stats }

// Close seals the active segment and waits for background work. The
// store must not be used afterwards.
func (w *WALStore) Close() error {
	if w.stopTick != nil {
		close(w.stopTick)
		w.tickWG.Wait()
		w.stopTick = nil
	}
	w.mu.Lock()
	var err error
	if !w.closed {
		w.closed = true
		err = w.closeActiveLocked()
	}
	w.mu.Unlock()
	w.snapWG.Wait()
	return err
}
