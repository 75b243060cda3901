// Package grouping partitions flex-offers into aggregation-compatible
// groups — the entry stage of the paper's Scenario-1 pipeline (refs [14]
// Valsomatzis et al., DARE 2014; [15] Šikšnys et al., SSDBM 2012).
// Every downstream stage (aggregate, schedule, disaggregate) consumes
// grouping output, so this package owns the three partitioning
// strategies the system ships — threshold similarity grouping,
// balance-aware grouping, and loss-bounded optimizing grouping — behind
// one pluggable Grouper interface, plus a parallel sharded
// implementation of the threshold strategy (parallel.go) whose output
// is bit-identical to the serial one for every worker count.
//
// Callers select a strategy here and hand the groups to aggregation, or
// install a Grouper on an Engine via flex.WithGrouper;
// aggregate.Optimizer supplies the optimizing strategy's combine step.
package grouping

import (
	"context"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/obs"
)

// Grouper partitions offers into aggregation-compatible groups. The
// input slice is never modified; constituent order inside each group is
// strategy-defined but deterministic. Implementations must be safe for
// concurrent use — an Engine shares one Grouper across requests.
type Grouper interface {
	Group(ctx context.Context, offers []*flexoffer.FlexOffer) ([][]*flexoffer.FlexOffer, error)
}

// Params controls the threshold strategy's similarity tolerances,
// mirroring the grouping parameters of reference [15].
type Params struct {
	// ESTTolerance is the maximum spread of earliest start times within
	// one group (the "EST tolerance" of [15]). 0 groups only offers
	// with identical earliest starts.
	ESTTolerance int
	// TFTolerance is the maximum spread of time flexibilities within
	// one group. Grouping offers of similar tf bounds the time
	// flexibility lost to the min-rule. Negative means unbounded.
	TFTolerance int
	// MaxGroupSize caps the constituents per group; 0 means unbounded.
	MaxGroupSize int
}

// Group partitions the offers with the serial threshold strategy: the
// offers are ordered by earliest start time (time flexibility breaking
// ties, input order breaking those) and greedily packed while the group
// stays within the tolerances. The input slice is not modified;
// constituent order inside each group follows the sort. This is the
// oracle the Sharded grouper is property-tested against.
func Group(offers []*flexoffer.FlexOffer, p Params) [][]*flexoffer.FlexOffer {
	return groupTraced(context.Background(), offers, p)
}

// groupTraced is the serial threshold grouper with its two phases —
// the stable key sort and the greedy pack — wrapped in group_sort and
// group_pack spans, so the serial path (small inputs, one worker)
// reports the same stage breakdown as the sharded one. Output is
// identical to Group for every input.
func groupTraced(ctx context.Context, offers []*flexoffer.FlexOffer, p Params) [][]*flexoffer.FlexOffer {
	if len(offers) == 0 {
		return nil
	}
	_, ssp := obs.Start(ctx, obs.StageGroupSort)
	ests, tfs := keysOf(offers)
	sorted, sortedEST, sortedTF := sortedBy(radixPerm(ests, tfs), offers, ests, tfs)
	ssp.End()
	_, psp := obs.Start(ctx, obs.StageGroupPack)
	defer psp.End()
	return pack(sorted, sortedEST, sortedTF, p)
}

// Threshold is the Grouper adapter of the serial threshold strategy.
// It never fails and ignores the context; use Sharded for the parallel
// implementation.
type Threshold struct {
	Params Params
}

// Group implements Grouper. The context is used only for tracing.
func (t Threshold) Group(ctx context.Context, offers []*flexoffer.FlexOffer) ([][]*flexoffer.FlexOffer, error) {
	return groupTraced(ctx, offers, t.Params), nil
}

// keysOf derives the sort keys — earliest start and time flexibility —
// for every offer. With a comparator that recomputes them, a sort of n
// offers pays the key derivation O(n log n) times and chases the offer
// pointers on every comparison; flat key slices keep the comparator to
// two integer loads. The Sharded grouper fans the same derivation out
// across its executor instead.
func keysOf(offers []*flexoffer.FlexOffer) (ests, tfs []int) {
	ests = make([]int, len(offers))
	tfs = make([]int, len(offers))
	for i, f := range offers {
		ests[i] = f.EarliestStart
		tfs[i] = f.TimeFlexibility()
	}
	return ests, tfs
}

// radixPerm returns the stable (est, tf)-sorted permutation of the
// offer indices: an LSD radix sort, first by tf and then by est, each
// pass stable. A stable sort has exactly one output for given keys, so
// the permutation is the one any stable comparison sort of the offers
// by (est, tf) yields. Each key is offset by its minimum in uint64
// arithmetic, so negative keys and keys spanning MinInt..MaxInt stay
// exact, and sorted 8 bits at a time with only the digit passes its
// span needs; a pass whose digit is the same for every offer is
// skipped. The cost is O(n) per pass.
func radixPerm(ests, tfs []int) []int {
	n := len(ests)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if n < 2 {
		return perm
	}
	tmp := make([]int, n)
	perm, tmp = radixSortBy(perm, tmp, tfs)
	perm, _ = radixSortBy(perm, tmp, ests)
	return perm
}

// radixSortBy stably sorts the indices in perm by keys[index], using
// tmp (of perm's length) as the scatter buffer. It returns the sorted
// indices and the other buffer; either may be perm's backing array.
func radixSortBy(perm, tmp, keys []int) (sorted, spare []int) {
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		lo = min(lo, k)
		hi = max(hi, k)
	}
	span := uint64(hi) - uint64(lo)
	base := uint64(lo)
	var count [256]int
	for shift := uint(0); shift < 64 && span>>shift != 0; shift += 8 {
		count = [256]int{}
		for _, p := range perm {
			count[byte((uint64(keys[p])-base)>>shift)]++
		}
		if count[byte((uint64(keys[perm[0]])-base)>>shift)] == len(perm) {
			continue
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, p := range perm {
			d := byte((uint64(keys[p]) - base) >> shift)
			tmp[count[d]] = p
			count[d]++
		}
		perm, tmp = tmp, perm
	}
	return perm, tmp
}

// sortedBy returns the offers and their keys rearranged into perm's
// order, so pack never follows an offer pointer to recompute a key.
func sortedBy(perm []int, offers []*flexoffer.FlexOffer, ests, tfs []int) (sorted []*flexoffer.FlexOffer, sortedEST, sortedTF []int) {
	sorted = make([]*flexoffer.FlexOffer, len(perm))
	sortedEST = make([]int, len(perm))
	sortedTF = make([]int, len(perm))
	for i, pi := range perm {
		sorted[i] = offers[pi]
		sortedEST[i] = ests[pi]
		sortedTF[i] = tfs[pi]
	}
	return sorted, sortedEST, sortedTF
}

// Pack greedily packs an already stably (est, tf)-sorted run into
// groups within the tolerances — the serial pack loop, exported for
// the scatter-gather sharded engine, which merges per-shard sorted
// runs into the global order itself and then needs exactly this loop
// (segmented at the EST-gap cuts, see Cuts) to reproduce the serial
// grouping bit for bit. sortedTF holds each offer's time flexibility
// in run order (nil recomputes them); the earliest starts are read from
// the offers. Pack copies the run once, so its groups never alias the
// caller's slice.
func Pack(sorted []*flexoffer.FlexOffer, sortedTF []int, p Params) [][]*flexoffer.FlexOffer {
	run := append([]*flexoffer.FlexOffer(nil), sorted...)
	ests, tfs := keysOf(run)
	if sortedTF != nil {
		tfs = sortedTF
	}
	return pack(run, ests, tfs, p)
}

// Cuts returns the exclusive end index of every independently packable
// segment of an (est, tf)-sorted run: the run is cut after position
// i-1 wherever sortedESTs[i]-sortedESTs[i-1] exceeds the tolerance. A
// group's earliest-start spread is bounded by the tolerance, so no
// group can span such a gap — the greedy pack provably flushes there —
// which makes the segments independent: packing each separately and
// concatenating the outputs reproduces Pack over the whole run. A
// non-empty input always yields a final cut at len(sortedESTs); an
// empty input yields nil.
func Cuts(sortedESTs []int, estTolerance int) []int {
	var ends []int
	for i := 1; i < len(sortedESTs); i++ {
		if sortedESTs[i]-sortedESTs[i-1] > estTolerance {
			ends = append(ends, i)
		}
	}
	if len(sortedESTs) > 0 {
		ends = append(ends, len(sortedESTs))
	}
	return ends
}

// pack greedily packs a run of (est, tf)-sorted offers into groups
// within the tolerances: a group accepts the next offer while the
// earliest-start spread stays within ESTTolerance, the time-flexibility
// spread within TFTolerance, and the size within MaxGroupSize.
// sortedEST and sortedTF hold each offer's keys in run order, so the
// loop never follows an offer pointer. Every group is a
// capacity-capped view of sorted — appending to one reallocates it
// instead of writing into the next — so the pack allocates only the
// group list. Both the serial grouper and each of the Sharded
// grouper's segments run exactly this loop, which is what makes the
// two bit-identical.
func pack(sorted []*flexoffer.FlexOffer, sortedEST, sortedTF []int, p Params) [][]*flexoffer.FlexOffer {
	var groups [][]*flexoffer.FlexOffer
	lo, minTF, maxTF := 0, 0, 0
	for i := range sorted {
		tf := sortedTF[i]
		if i > lo {
			l, h := min(minTF, tf), max(maxTF, tf)
			if sortedEST[i]-sortedEST[lo] <= p.ESTTolerance &&
				(p.TFTolerance < 0 || h-l <= p.TFTolerance) &&
				(p.MaxGroupSize <= 0 || i-lo < p.MaxGroupSize) {
				minTF, maxTF = l, h
				continue
			}
			groups = append(groups, sorted[lo:i:i])
			lo = i
		}
		minTF, maxTF = tf, tf
	}
	if n := len(sorted); n > lo {
		groups = append(groups, sorted[lo:n:n])
	}
	return groups
}
