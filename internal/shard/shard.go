// Package shard partitions a flex-offer population across N engine
// shards — the routing seam that lifts the one-engine ceiling toward
// the paper's millions-of-prosumers scale. It owns three pieces:
//
//   - Router: the pluggable partitioning key. Offers carrying a grid
//     zone (or tenant) route by zone, offers with only a prosumer ID
//     route by a consistent hash of the ID, and anonymous offers
//     round-robin on their sequence number.
//   - Stores: N copy-on-write offer stores sharing one global sequence
//     counter and one ID-dedup index, so the concatenation of the
//     shards in sequence order is exactly the offer list a single
//     store would hold.
//   - Run merging: the deterministic gather step. Each shard
//     stable-sorts its entries by the grouping key; MergeRuns merges
//     the runs by (earliest start, time flexibility, sequence),
//     which reproduces the global stable sort bit for bit — the fact
//     the scatter-gather pipeline's equivalence proof rests on.
//
// The package is deliberately engine-free: it depends only on the
// flex-offer model, so flex.Engine composes it with the engine
// layer without an import cycle, and a future coordinator process can
// reuse the same router against remote shards.
package shard

import (
	"hash/fnv"

	"flexmeasures/internal/flexoffer"
)

// Entry is one stored offer together with its global sequence number.
// Sequence numbers are unique across all shards and assigned in ingest
// order; merging every shard's entries by Seq reproduces the exact
// offer order a single unsharded store would hold, which is what keeps
// scatter-gather output bit-identical to a single store.
type Entry struct {
	// Offer is the stored flex-offer. Treat it as immutable: entries
	// are shared between snapshots.
	Offer *flexoffer.FlexOffer
	// Seq is the offer's global sequence number (its position in the
	// equivalent unsharded store).
	Seq uint64
}

// KeyFunc derives an offer's routing key. An empty key means "no
// affinity": the router falls back to round-robin on the sequence
// number.
type KeyFunc func(*flexoffer.FlexOffer) string

// DefaultKey routes by grid zone/tenant when the offer carries one,
// otherwise by prosumer ID, otherwise (empty key) round-robin. Zone
// precedence keeps a zone's offers co-located on one shard — the
// locality a per-zone congestion query wants — while ID hashing
// spreads zone-less populations evenly and keeps a re-submitting
// prosumer on a stable shard.
func DefaultKey(f *flexoffer.FlexOffer) string {
	if f.Zone != "" {
		return f.Zone
	}
	return f.ID
}

// Router assigns offers to shards by a pluggable key. The zero value
// routes everything to one shard.
type Router struct {
	// Shards is the shard count; values below 1 mean 1.
	Shards int
	// Key derives the routing key; nil means DefaultKey.
	Key KeyFunc
}

// NumShards returns the effective shard count (at least 1).
func (r Router) NumShards() int {
	if r.Shards < 1 {
		return 1
	}
	return r.Shards
}

// Route returns the shard for an offer with the given global sequence
// number. Keyed offers route by jump consistent hash of the key's
// FNV-1a digest — stable under shard-count growth in the consistent-
// hashing sense (an offer only ever moves to a new, higher shard) —
// and keyless offers round-robin on seq.
func (r Router) Route(f *flexoffer.FlexOffer, seq uint64) int {
	n := r.NumShards()
	if n == 1 {
		return 0
	}
	key := r.Key
	if key == nil {
		key = DefaultKey
	}
	k := key(f)
	if k == "" {
		return int(seq % uint64(n))
	}
	return Jump(Hash64(k), n)
}

// Partition routes a materialized offer slice into per-shard entry
// lists, assigning sequence numbers in input order. Each part is in
// ascending Seq order — the invariant every consumer of routed parts
// relies on.
func Partition(offers []*flexoffer.FlexOffer, r Router) [][]Entry {
	parts := make([][]Entry, r.NumShards())
	if len(parts) == 1 {
		parts[0] = make([]Entry, 0, len(offers))
	}
	for i, f := range offers {
		k := r.Route(f, uint64(i))
		parts[k] = append(parts[k], Entry{Offer: f, Seq: uint64(i)})
	}
	return parts
}

// Hash64 is the 64-bit FNV-1a digest of the key.
func Hash64(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return h.Sum64()
}

// Jump is the jump consistent hash of Lamping & Veach: a keyed,
// allocation-free mapping of a 64-bit hash onto [0, buckets) in which
// growing the bucket count moves only the keys that land in the new
// buckets — no routing table to store or rebalance.
func Jump(key uint64, buckets int) int {
	if buckets <= 1 {
		return 0
	}
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}
