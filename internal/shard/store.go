package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"flexmeasures/internal/flexoffer"
)

// Op identifies one kind of store mutation. The values are stable wire
// constants: internal/persist writes them into WAL records, so they
// must never be renumbered.
type Op uint8

const (
	// OpAdd appends a new offer under a fresh sequence number.
	OpAdd Op = 1
	// OpReplace overwrites the stored offer that owns Seq (last write
	// wins), possibly moving it to a different shard.
	OpReplace Op = 2
	// OpDelete removes the entry at (Shard, Seq).
	OpDelete Op = 3
	// OpReset empties the store and restarts the sequence counter.
	OpReset Op = 4
)

// String names the op for errors and logs.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpReplace:
		return "replace"
	case OpDelete:
		return "delete"
	case OpReset:
		return "reset"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Mutation is one store change in its replayable form: the op plus the
// exact shard and sequence number it lands on. Add and Stage report the
// mutations they planned, Apply consumes them — the same application
// code runs for live ingest and for WAL replay, which is what makes a
// replayed store bit-identical to the one that wrote the log.
type Mutation struct {
	Op    Op
	Shard int
	// Seq is the global sequence number the mutation targets: the fresh
	// number for OpAdd, the replaced entry's original number for
	// OpReplace, the victim's number for OpDelete. Unused by OpReset.
	Seq uint64
	// Offer carries the offer body for OpAdd and OpReplace; nil for
	// OpDelete and OpReset.
	Offer *flexoffer.FlexOffer
}

// loc records where a deduplicated offer lives: its shard and the
// global sequence number it keeps for life (re-submissions replace the
// offer in place, position included).
type loc struct {
	shard int
	seq   uint64
}

// Stores is the sharded counterpart of flexd's single in-memory offer
// store: N copy-on-write entry lists under one lock, one global
// sequence counter, and one last-write-wins ID index spanning all
// shards. Snapshots are immutable — a shard slice a snapshot has seen
// is only ever appended to past its length, or replaced wholesale by a
// clone before an in-place edit — so readers run lock-free on whatever
// snapshot they took. A shard no snapshot has seen since its last
// clone is edited in place, so a stream of replacing ingests between
// reads copies nothing.
//
// The single lock is deliberate: per-shard locks would let two
// concurrent ingests interleave their sequence assignments, and the
// whole point of the sequence counter is that merging the shards by
// Seq reproduces one globally ordered store. Ingest holds the lock
// only to splice already-decoded offers, so the critical section is
// memory moves, not parsing.
//
// Every change flows through the Stage/Apply pair: Stage plans a batch
// into explicit Mutations (routing, sequence assignment, last-write-
// wins resolution) without touching state, Apply executes mutations.
// Add bundles the two under one lock acquisition; a durable store
// stages, logs the mutations to its WAL, and only then applies — so a
// logged-but-unapplied batch can never exist, and replaying the log
// through the same Apply reproduces this store exactly.
type Stores struct {
	r Router

	mu     sync.RWMutex
	seq    uint64
	shards [][]Entry
	// shared[k] reports that a Snapshot has handed out shards[k]'s
	// backing array since it was last cloned, so the next in-place edit
	// must clone it first. Snapshot sets it under the read lock, hence
	// the atomics; own clears it under the write lock.
	shared []atomic.Bool
	// index maps a non-empty offer ID to its shard and sequence — the
	// per-prosumer identity behind last-write-wins dedup. It spans all
	// shards so a re-submission whose zone changed is found (and moved)
	// rather than double-counted.
	index map[string]loc
	count int
}

// NewStores returns an empty sharded store routed by r.
func NewStores(r Router) *Stores {
	return &Stores{
		r:      r,
		shards: make([][]Entry, r.NumShards()),
		shared: make([]atomic.Bool, r.NumShards()),
		index:  make(map[string]loc),
	}
}

// Shards returns the shard count.
func (s *Stores) Shards() int { return len(s.shards) }

// Add merges decoded offers into the store: an offer whose non-empty ID
// is already present replaces the stored one at its original sequence
// number (last write wins — and if the new version's key routes
// elsewhere, e.g. the prosumer moved zones, the entry moves shards
// keeping its sequence), everything else is appended under a fresh
// sequence number. A shard whose pre-existing region is touched is
// cloned first if a snapshot has seen it, keeping previously returned
// snapshots immutable.
//
// It reports the applied mutations (one per offer, in input order) and
// the store's total size afterwards.
func (s *Stores) Add(offers []*flexoffer.FlexOffer) (muts []Mutation, stored int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	muts = s.stageLocked(offers)
	if err := s.applyLocked(muts); err != nil {
		// Stage and Apply agree by construction; a failure here is a
		// bug, not an input condition.
		panic(err)
	}
	return muts, s.count
}

// Stage plans a batch without mutating the store: it resolves
// last-write-wins replacements (including duplicates within the batch),
// routes every offer, and assigns sequence numbers, returning one
// Mutation per offer in input order. The plan is only valid until the
// next mutation, so Stage→Apply sequences must be serialized by the
// caller (the durable store's write lock); Add does both under one
// internal lock for callers without a log to write in between.
func (s *Stores) Stage(offers []*flexoffer.FlexOffer) []Mutation {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stageLocked(offers)
}

func (s *Stores) stageLocked(offers []*flexoffer.FlexOffer) []Mutation {
	muts := make([]Mutation, 0, len(offers))
	seq := s.seq
	// overlay holds the sequence numbers of IDs added earlier in this
	// same batch, so an intra-batch re-submission stages as a replace of
	// the staged entry, exactly as it would land if the batch were split
	// in two. A replace keeps its sequence number and routing needs
	// nothing else, so replaced IDs need no entry: a batch of
	// re-submissions stages without a map.
	var overlay map[string]uint64
	for _, f := range offers {
		if f.ID != "" {
			at, ok := overlay[f.ID]
			if !ok {
				l, found := s.index[f.ID]
				at, ok = l.seq, found
			}
			if ok {
				muts = append(muts, Mutation{Op: OpReplace, Shard: s.r.Route(f, at), Seq: at, Offer: f})
				continue
			}
		}
		sh := s.r.Route(f, seq)
		muts = append(muts, Mutation{Op: OpAdd, Shard: sh, Seq: seq, Offer: f})
		if f.ID != "" {
			if overlay == nil {
				overlay = make(map[string]uint64)
			}
			overlay[f.ID] = seq
		}
		seq++
	}
	return muts
}

// Delete removes the stored offers with the given IDs (unknown IDs are
// skipped), reporting the applied delete mutations and the store's
// total size afterwards.
func (s *Stores) Delete(ids []string) (muts []Mutation, stored int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	muts = s.stageDeleteLocked(ids)
	if err := s.applyLocked(muts); err != nil {
		panic(err)
	}
	return muts, s.count
}

// StageDelete plans Delete without mutating the store; the same
// serialization rules as Stage apply.
func (s *Stores) StageDelete(ids []string) []Mutation {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stageDeleteLocked(ids)
}

func (s *Stores) stageDeleteLocked(ids []string) []Mutation {
	var muts []Mutation
	staged := make(map[string]bool)
	for _, id := range ids {
		if id == "" || staged[id] {
			continue
		}
		if l, ok := s.index[id]; ok {
			muts = append(muts, Mutation{Op: OpDelete, Shard: l.shard, Seq: l.seq})
			staged[id] = true
		}
	}
	return muts
}

// Apply executes mutations — the single code path live ingest and WAL
// replay share. Every mutation carries its exact shard and sequence
// number, so applying a store's logged mutations to an empty store of
// the same shape reproduces its contents bit for bit. Inconsistent
// mutations (a replace of an unknown ID, a sequence regression, an
// out-of-range shard) return an error with nothing further applied: on
// replay such a record means the log is corrupt, and the caller must
// fail loudly rather than guess.
func (s *Stores) Apply(muts []Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(muts)
}

func (s *Stores) applyLocked(muts []Mutation) error {
	for i, m := range muts {
		if err := s.applyOne(m); err != nil {
			return fmt.Errorf("mutation %d (%s seq %d): %w", i, m.Op, m.Seq, err)
		}
	}
	return nil
}

func (s *Stores) applyOne(m Mutation) error {
	switch m.Op {
	case OpAdd:
		if m.Shard < 0 || m.Shard >= len(s.shards) {
			return fmt.Errorf("shard %d out of range [0,%d)", m.Shard, len(s.shards))
		}
		if m.Offer == nil {
			return fmt.Errorf("add without an offer")
		}
		if m.Seq < s.seq {
			return fmt.Errorf("sequence regression (next %d)", s.seq)
		}
		if sh := s.shards[m.Shard]; len(sh) > 0 && sh[len(sh)-1].Seq >= m.Seq {
			return fmt.Errorf("shard %d not in sequence order", m.Shard)
		}
		s.shards[m.Shard] = append(s.shards[m.Shard], Entry{Offer: m.Offer, Seq: m.Seq})
		s.seq = m.Seq + 1
		if m.Offer.ID != "" {
			s.index[m.Offer.ID] = loc{shard: m.Shard, seq: m.Seq}
		}
		s.count++
	case OpReplace:
		if m.Shard < 0 || m.Shard >= len(s.shards) {
			return fmt.Errorf("shard %d out of range [0,%d)", m.Shard, len(s.shards))
		}
		if m.Offer == nil || m.Offer.ID == "" {
			return fmt.Errorf("replace without an identified offer")
		}
		l, ok := s.index[m.Offer.ID]
		if !ok {
			return fmt.Errorf("replace of unknown id %q", m.Offer.ID)
		}
		if l.seq != m.Seq {
			return fmt.Errorf("replace targets seq %d but id %q owns seq %d", m.Seq, m.Offer.ID, l.seq)
		}
		s.replace(m.Offer, l, m.Shard)
		s.index[m.Offer.ID] = loc{shard: m.Shard, seq: m.Seq}
	case OpDelete:
		if m.Shard < 0 || m.Shard >= len(s.shards) {
			return fmt.Errorf("shard %d out of range [0,%d)", m.Shard, len(s.shards))
		}
		sh := s.shards[m.Shard]
		pos := findSeq(sh, m.Seq)
		if pos >= len(sh) || sh[pos].Seq != m.Seq {
			return fmt.Errorf("delete of absent entry on shard %d", m.Shard)
		}
		victim := sh[pos]
		s.own(m.Shard)
		s.shards[m.Shard] = removeAt(s.shards[m.Shard], pos)
		if victim.Offer.ID != "" {
			delete(s.index, victim.Offer.ID)
		}
		s.count--
	case OpReset:
		s.resetLocked()
	default:
		return fmt.Errorf("unknown op")
	}
	return nil
}

// replace overwrites the entry at l with f, moving it to the target
// shard when routing changed, cloning a touched shard only when a
// snapshot has seen it.
func (s *Stores) replace(f *flexoffer.FlexOffer, l loc, target int) {
	s.own(l.shard)
	pos := findSeq(s.shards[l.shard], l.seq)
	if target == l.shard {
		s.shards[l.shard][pos] = Entry{Offer: f, Seq: l.seq}
		return
	}
	// Cross-shard move: remove from the old shard, insert into the new
	// one at the position its sequence number dictates, so every shard
	// slice stays Seq-sorted. Both edits run in place once the shards
	// are owned, so k moves between snapshots cost at most one clone per
	// shard, not two per move.
	s.shards[l.shard] = removeAt(s.shards[l.shard], pos)
	s.own(target)
	dst := s.shards[target]
	at := insertionPoint(dst, l.seq)
	dst = append(dst, Entry{})
	copy(dst[at+1:], dst[at:])
	dst[at] = Entry{Offer: f, Seq: l.seq}
	s.shards[target] = dst
}

// own makes shard k's slice safe to edit in place: if a snapshot has
// handed out its backing array since the last clone, it is cloned now,
// so no snapshot ever sees an edit. Until the next Snapshot, further
// edits reuse the clone.
func (s *Stores) own(k int) {
	if s.shared[k].Load() {
		s.shards[k] = append([]Entry(nil), s.shards[k]...)
		s.shared[k].Store(false)
	}
}

// removeAt removes entries[pos] in place, clearing the vacated tail
// slot so the private copy keeps no reference to the removed offer.
func removeAt(entries []Entry, pos int) []Entry {
	copy(entries[pos:], entries[pos+1:])
	entries[len(entries)-1] = Entry{}
	return entries[:len(entries)-1]
}

// findSeq locates seq in a Seq-sorted entry slice (it must be present).
func findSeq(entries []Entry, seq uint64) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if entries[mid].Seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertionPoint returns where seq belongs in a Seq-sorted slice.
func insertionPoint(entries []Entry, seq uint64) int {
	return findSeq(entries, seq)
}

// Reserve makes room for adds[i] more entries on shard i and for their
// IDs in the index, so a replay that knows how many add records it is
// about to apply fills exactly sized slices instead of regrowing them.
// A shard whose capacity falls short is copied into a fresh array, so
// previously returned snapshots stay untouched. adds shorter than the
// shard count reserves nothing on the missing shards.
func (s *Stores) Reserve(adds []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for i, n := range adds {
		if i >= len(s.shards) || n <= 0 {
			continue
		}
		total += n
		if sh := s.shards[i]; cap(sh)-len(sh) < n {
			grown := make([]Entry, len(sh), len(sh)+n)
			copy(grown, sh)
			s.shards[i] = grown
			s.shared[i].Store(false)
		}
	}
	if len(s.index) == 0 && total > 0 {
		s.index = make(map[string]loc, total)
	}
}

// Snapshot returns the per-shard entry lists. The inner slices are
// immutable (copy-on-write; see Apply) and each is in ascending Seq
// order; the outer slice is a fresh copy the caller may keep.
func (s *Stores) Snapshot() [][]Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([][]Entry, len(s.shards))
	copy(out, s.shards)
	for k := range s.shared {
		// Load first: once the flag is set, concurrent readers only
		// read its cache line.
		if !s.shared[k].Load() {
			s.shared[k].Store(true)
		}
	}
	return out
}

// Len returns the total offer count across all shards.
func (s *Stores) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// Seq returns the next sequence number the store will assign. Together
// with Snapshot it is the store's full durable state: deletions and
// resets make the counter unrecoverable from the entries alone, so a
// snapshot must persist it explicitly.
func (s *Stores) Seq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// SetSeq forces the next sequence number. Replay-only: a snapshot
// restores its persisted counter after loading its entries, since the
// entries' maximum Seq undercounts whenever the latest offers were
// deleted. v below the current counter is ignored — the counter never
// regresses.
func (s *Stores) SetSeq(v uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v > s.seq {
		s.seq = v
	}
}

// ShardLens returns the per-shard offer counts.
func (s *Stores) ShardLens() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, len(s.shards))
	for i, entries := range s.shards {
		out[i] = len(entries)
	}
	return out
}

// Reset empties every shard and restarts the sequence counter.
func (s *Stores) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resetLocked()
}

func (s *Stores) resetLocked() {
	s.shards = make([][]Entry, len(s.shards))
	for k := range s.shared {
		s.shared[k].Store(false)
	}
	s.index = make(map[string]loc)
	s.seq = 0
	s.count = 0
}

// Summarize aggregates a mutation batch into the counters the serving
// layer reports: how many mutations replaced an existing offer, and how
// many landed on each of n shards (deletes and resets count nowhere).
func Summarize(muts []Mutation, n int) (replaced int, routed []int) {
	routed = make([]int, n)
	for _, m := range muts {
		switch m.Op {
		case OpAdd:
			routed[m.Shard]++
		case OpReplace:
			routed[m.Shard]++
			replaced++
		}
	}
	return replaced, routed
}
