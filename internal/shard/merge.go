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

// MergeRuns k-way merges per-shard grouping runs into the global
// grouping order by (est, tf, seq). This is the scatter-gather
// pipeline's deterministic gather step: the sequence tie-break makes
// the comparator a total order, so the merged run equals the stable
// (est, tf) sort of the unsharded store regardless of how the router
// split the population — the property the bit-identity tests pin.
// Empty runs are skipped; a nil or empty input yields an empty run. A
// single non-empty run is already merged and is returned as is, sharing
// its storage.
func MergeRuns(runs []Run) Run {
	live := make([]int, 0, len(runs))
	total := 0
	for k := range runs {
		if runs[k].Len() > 0 {
			live = append(live, k)
			total += runs[k].Len()
		}
	}
	if len(live) == 1 {
		return runs[live[0]]
	}
	out := Run{
		Offers: make([]*flexoffer.FlexOffer, 0, total),
		Seqs:   make([]uint64, 0, total),
		ESTs:   make([]int, 0, total),
		TFs:    make([]int, 0, total),
	}
	idx := make([]int, len(runs))
	for len(live) > 0 {
		best := 0
		for c := 1; c < len(live); c++ {
			if runLess(runs[live[c]], idx[live[c]], runs[live[best]], idx[live[best]]) {
				best = c
			}
		}
		k := live[best]
		i := idx[k]
		out.Offers = append(out.Offers, runs[k].Offers[i])
		out.Seqs = append(out.Seqs, runs[k].Seqs[i])
		out.ESTs = append(out.ESTs, runs[k].ESTs[i])
		out.TFs = append(out.TFs, runs[k].TFs[i])
		idx[k]++
		if idx[k] == runs[k].Len() {
			live = append(live[:best], live[best+1:]...)
		}
	}
	return out
}

// runLess orders run positions by (est, tf, seq).
func runLess(a Run, i int, b Run, j int) bool {
	if a.ESTs[i] != b.ESTs[j] {
		return a.ESTs[i] < b.ESTs[j]
	}
	if a.TFs[i] != b.TFs[j] {
		return a.TFs[i] < b.TFs[j]
	}
	return a.Seqs[i] < b.Seqs[j]
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
