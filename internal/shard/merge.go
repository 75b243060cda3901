package shard

import "flexmeasures/internal/flexoffer"

// Run is one shard's entries in grouping order: offers stably sorted
// by (earliest start, time flexibility), with ties broken by sequence
// number. Because a shard's store is Seq-sorted, a stable (est, tf)
// sort of it is automatically in (est, tf, seq) order — producers
// never need an explicit three-key comparator.
type Run struct {
	// Offers holds the shard's offers in run order.
	Offers []*flexoffer.FlexOffer
	// Seqs[i] is Offers[i]'s global sequence number.
	Seqs []uint64
	// ESTs[i] is Offers[i]'s earliest start (the primary grouping key).
	ESTs []int
	// TFs[i] is Offers[i]'s time flexibility (the secondary key).
	TFs []int
}

// Len returns the run's length.
func (r Run) Len() int { return len(r.Offers) }

// MergeRuns merges per-shard grouping runs into the global grouping
// order by (est, tf, seq). This is the scatter-gather pipeline's
// deterministic gather step: the sequence tie-break makes the
// comparator a total order, so the merged run equals the stable
// (est, tf) sort of the unsharded store regardless of how the router
// split the population — the property the bit-identity tests pin.
// Empty runs are skipped; a nil or empty input yields an empty run. A
// single non-empty run is already merged and is returned as is, sharing
// its storage.
//
// Runs are merged pairwise, the two shortest first, each pair by
// galloping (mergeSegments): a stretch of one run that sorts before the other
// run's next entry is found by exponential then binary search and
// moved with one copy per field. Merging a handful of changed entries
// into a large run therefore costs a few searches and block copies
// rather than one comparison per entry.
func MergeRuns(runs []Run) Run {
	live := make([]Run, 0, len(runs))
	for _, r := range runs {
		if r.Len() > 0 {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return Run{
			Offers: []*flexoffer.FlexOffer{},
			Seqs:   []uint64{},
			ESTs:   []int{},
			TFs:    []int{},
		}
	}
	for len(live) > 1 {
		a, b := 0, 1
		if live[b].Len() < live[a].Len() {
			a, b = b, a
		}
		for c := 2; c < len(live); c++ {
			switch n := live[c].Len(); {
			case n < live[a].Len():
				a, b = c, a
			case n < live[b].Len():
				b = c
			}
		}
		// Merging in run order keeps entries with equal keys (only
		// possible when Seqs repeat) in run order.
		a, b = min(a, b), max(a, b)
		live[a] = mergeSegments([]Run{live[a]}, live[b])
		live = append(live[:b], live[b+1:]...)
	}
	return live[0]
}

// MergeDelta is MergeRuns(base without the entries at positions drop,
// runs...) in a single pass over base: the incremental grouping order's
// update, which cuts a call's removed entries out of the previous
// call's merged run and merges its added entries in. drop must be
// ascending positions of base. When nothing is dropped or added the
// result is base itself, and when nothing of base is left it is
// MergeRuns(runs); otherwise it is fresh storage.
func MergeDelta(base Run, drop []int, runs []Run) Run {
	add := MergeRuns(runs)
	if len(drop) == 0 && add.Len() == 0 && base.Len() > 0 {
		return base
	}
	segs := make([]Run, 0, len(drop)+1)
	lo := 0
	for _, p := range drop {
		if p > lo {
			segs = append(segs, base.slice(lo, p))
		}
		lo = p + 1
	}
	if lo < base.Len() {
		segs = append(segs, base.slice(lo, base.Len()))
	}
	if len(segs) == 0 {
		return add
	}
	return mergeSegments(segs, add)
}

// slice returns the view r[lo:hi] of every field.
func (r Run) slice(lo, hi int) Run {
	return Run{Offers: r.Offers[lo:hi], Seqs: r.Seqs[lo:hi], ESTs: r.ESTs[lo:hi], TFs: r.TFs[lo:hi]}
}

// mergeSegments merges b by galloping into the concatenation of segs,
// consecutive stretches of one sorted run, writing fresh storage.
func mergeSegments(segs []Run, b Run) Run {
	n := b.Len()
	for _, a := range segs {
		n += a.Len()
	}
	out := Run{
		Offers: make([]*flexoffer.FlexOffer, n),
		Seqs:   make([]uint64, n),
		ESTs:   make([]int, n),
		TFs:    make([]int, n),
	}
	o, j := 0, 0
	for _, a := range segs {
		i := 0
		for i < a.Len() && j < b.Len() {
			// a's stretch takes entries equal to b's next one, so b's
			// stretch after it is never empty and every round advances.
			k := gallop(a, i, b.ESTs[j], b.TFs[j], b.Seqs[j], true)
			o = out.put(o, a, i, k)
			if i = k; i == a.Len() {
				break
			}
			k = gallop(b, j, a.ESTs[i], a.TFs[i], a.Seqs[i], false)
			o = out.put(o, b, j, k)
			j = k
		}
		o = out.put(o, a, i, a.Len())
	}
	out.put(o, b, j, b.Len())
	return out
}

// gallop returns the first index k ≥ lo of r whose entry sorts after
// the key (est, tf, seq) — or, unless orEqual, is equal to it: a short
// linear probe, then exponential steps, then a binary search inside the
// last step.
func gallop(r Run, lo int, est, tf int, seq uint64, orEqual bool) int {
	before := func(k int) bool {
		if orEqual {
			return !keyLess(est, tf, seq, r.ESTs[k], r.TFs[k], r.Seqs[k])
		}
		return keyLess(r.ESTs[k], r.TFs[k], r.Seqs[k], est, tf, seq)
	}
	n := r.Len()
	k := lo
	for end := min(lo+4, n); k < end; k++ {
		if !before(k) {
			return k
		}
	}
	// Every entry before k sorts before the key; widen the step until
	// one does not (or the run ends), then bisect the last step.
	step := 4
	for k < n && before(k) {
		lo = k + 1
		k += step
		step *= 2
	}
	hi := min(k, n)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if before(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// put copies entries lo..hi of r to out starting at o and returns the
// next free position. A short stretch is copied entry by entry, which
// beats four copy calls when two runs interleave finely.
func (out Run) put(o int, r Run, lo, hi int) int {
	if hi-lo <= 4 {
		for ; lo < hi; lo++ {
			out.Offers[o] = r.Offers[lo]
			out.Seqs[o] = r.Seqs[lo]
			out.ESTs[o] = r.ESTs[lo]
			out.TFs[o] = r.TFs[lo]
			o++
		}
		return o
	}
	copy(out.Offers[o:], r.Offers[lo:hi])
	copy(out.Seqs[o:], r.Seqs[lo:hi])
	copy(out.ESTs[o:], r.ESTs[lo:hi])
	copy(out.TFs[o:], r.TFs[lo:hi])
	return o + hi - lo
}

// keyLess orders grouping keys by (est, tf, seq).
func keyLess(e1, t1 int, s1 uint64, e2, t2 int, s2 uint64) bool {
	if e1 != e2 {
		return e1 < e2
	}
	if t1 != t2 {
		return t1 < t2
	}
	return s1 < s2
}

// Search returns the first position of r whose entry does not sort
// before the key (est, tf, seq) — where an entry with that key sits,
// or would be inserted.
func (r Run) Search(est, tf int, seq uint64) int {
	return gallop(r, 0, est, tf, seq, false)
}

// Flatten k-way merges per-shard entry lists (each ascending in Seq,
// the Partition/Stores invariant) back into the global store order —
// the offer slice an unsharded store would hold. Order-sensitive
// serial stages (global scheduling, the measures table) consume this.
func Flatten(parts [][]Entry) []*flexoffer.FlexOffer {
	live := make([]int, 0, len(parts))
	total := 0
	for k := range parts {
		if len(parts[k]) > 0 {
			live = append(live, k)
			total += len(parts[k])
		}
	}
	out := make([]*flexoffer.FlexOffer, 0, total)
	if len(live) == 1 {
		for _, e := range parts[live[0]] {
			out = append(out, e.Offer)
		}
		return out
	}
	idx := make([]int, len(parts))
	for len(live) > 0 {
		best := 0
		for c := 1; c < len(live); c++ {
			if parts[live[c]][idx[live[c]]].Seq < parts[live[best]][idx[live[best]]].Seq {
				best = c
			}
		}
		k := live[best]
		out = append(out, parts[k][idx[k]].Offer)
		idx[k]++
		if idx[k] == len(parts[k]) {
			live = append(live[:best], live[best+1:]...)
		}
	}
	return out
}
