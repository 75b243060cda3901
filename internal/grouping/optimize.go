package grouping

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"flexmeasures/internal/core"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/pool"
)

// Optimize-strategy sentinel errors.
var (
	// ErrNoMeasure is returned by OptimizeGroups without a measure.
	ErrNoMeasure = errors.New("grouping: optimizing grouping requires a measure")
	// ErrNoCombiner is returned by OptimizeGroups without a combine
	// function: the strategy cannot score a merge candidate without
	// building the merged aggregate it would produce.
	ErrNoCombiner = errors.New("grouping: optimizing grouping requires a combine function")
)

// CombineFunc builds the aggregate flex-offer a group would produce, so
// the optimize strategy can measure the flexibility a merge loses. The
// aggregate package's Aggregate is the canonical implementation; the
// indirection keeps this package free of a dependency on aggregation.
type CombineFunc func(group []*flexoffer.FlexOffer) (*flexoffer.FlexOffer, error)

// OptimizeParams controls OptimizeGroups.
type OptimizeParams struct {
	// Measure scores groups; the loss bound is expressed in its units.
	// Required.
	Measure core.Measure
	// MaxLossFraction bounds the relative flexibility loss a single
	// merge may cause: a merge is admissible when
	//
	//	setValue(parts) − value(merged aggregate)
	//	─────────────────────────────────────────  ≤ MaxLossFraction,
	//	          setValue(parts)
	//
	// so 0 permits only lossless merges and 1 permits everything.
	MaxLossFraction float64
	// ESTTolerance bounds the earliest-start spread within a group, as
	// in Params; negative means unbounded.
	ESTTolerance int
	// MaxGroupSize caps constituents per group; 0 means unbounded.
	MaxGroupSize int
	// MaxPasses bounds the merge passes; 0 means until convergence.
	MaxPasses int
	// Workers bounds the goroutines evaluating merge candidates per
	// pass; values below 1 mean runtime.GOMAXPROCS(0). The result is
	// identical for every worker count — only the loss evaluations run
	// concurrently; candidate selection stays deterministic. Any
	// worker count other than 1 calls Measure from multiple
	// goroutines, so a custom Measure must be safe for concurrent use
	// (every measure in this library is — they are stateless value
	// types); set Workers to 1 to force a serial scan otherwise.
	Workers int
	// Pool, when non-nil, submits the merge-candidate scan to a
	// persistent executor (an Engine's pool) instead of spawning
	// Workers goroutines per pass.
	Pool pool.Executor
}

// OptimizeGroups implements the paper's Section 6 future work —
// "performing aggregation jointly with flexibility optimization": it
// partitions the offers so that aggregation preserves as much measured
// flexibility as possible, instead of grouping by start-time similarity
// alone. combine builds the aggregate a candidate merge would produce
// (aggregate.Aggregate, behind a func value).
//
// The algorithm is greedy agglomerative merging over the earliest-start
// ordering: starting from singleton groups, each pass evaluates merging
// every pair of adjacent groups, performs the admissible merge with the
// smallest relative loss first, and repeats until no admissible merge
// remains. Adjacency in start order keeps the scan linear per pass while
// capturing the merges start-alignment aggregation benefits from
// (offers far apart in time lose their whole window to the min-rule).
func OptimizeGroups(offers []*flexoffer.FlexOffer, p OptimizeParams, combine CombineFunc) ([][]*flexoffer.FlexOffer, error) {
	if p.Measure == nil {
		return nil, ErrNoMeasure
	}
	if combine == nil {
		return nil, ErrNoCombiner
	}
	if len(offers) == 0 {
		return nil, nil
	}
	sorted := append([]*flexoffer.FlexOffer(nil), offers...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].EarliestStart < sorted[j].EarliestStart
	})
	groups := make([][]*flexoffer.FlexOffer, len(sorted))
	for i, f := range sorted {
		groups[i] = []*flexoffer.FlexOffer{f}
	}
	maxPasses := p.MaxPasses
	if maxPasses <= 0 {
		maxPasses = len(groups)
	}
	for pass := 0; pass < maxPasses; pass++ {
		merged, err := mergePass(groups, p, combine)
		if err != nil {
			return nil, err
		}
		if merged == nil {
			break
		}
		groups = merged
	}
	return groups, nil
}

// Optimize is the Grouper adapter of the loss-bounded optimizing
// strategy. Combine is required (aggregate.Optimizer supplies the
// aggregation step).
type Optimize struct {
	Params  OptimizeParams
	Combine CombineFunc
}

// Group implements Grouper.
func (o Optimize) Group(_ context.Context, offers []*flexoffer.FlexOffer) ([][]*flexoffer.FlexOffer, error) {
	return OptimizeGroups(offers, o.Params, o.Combine)
}

// mergePass performs every non-overlapping admissible adjacent merge in
// ascending order of loss. It returns nil when no merge was admissible.
//
// Measuring a merge candidate (two aggregations plus up to three measure
// evaluations) dominates the pass, and the candidates are independent, so
// the scan fans out across p.Workers goroutines; results land in
// per-index slots, keeping candidate selection byte-identical to a serial
// scan. With n singleton groups the first pass alone evaluates n−1
// candidates, which made the serial scan the O(n²) hot spot of
// OptimizeGroups.
func mergePass(groups [][]*flexoffer.FlexOffer, p OptimizeParams, combine CombineFunc) ([][]*flexoffer.FlexOffer, error) {
	type candidate struct {
		left int
		loss float64
	}
	type evaluation struct {
		loss float64
		ok   bool
		err  error
	}
	evals := make([]evaluation, max(len(groups)-1, 0))
	scan := func(i int) {
		loss, ok, err := mergeLoss(groups[i], groups[i+1], p, combine)
		evals[i] = evaluation{loss: loss, ok: ok, err: err}
	}
	if p.Pool != nil {
		p.Pool.ForEach(len(evals), p.Workers, 0, scan)
	} else {
		pool.Run(len(evals), p.Workers, 0, scan)
	}
	var cands []candidate
	for i, ev := range evals {
		if ev.err != nil {
			return nil, ev.err
		}
		if ev.ok {
			cands = append(cands, candidate{left: i, loss: ev.loss})
		}
	}
	if len(cands) == 0 {
		return nil, nil
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].loss < cands[b].loss })
	taken := make(map[int]bool)
	mergeWith := make(map[int]bool) // left index of each accepted merge
	for _, c := range cands {
		if taken[c.left] || taken[c.left+1] {
			continue
		}
		taken[c.left], taken[c.left+1] = true, true
		mergeWith[c.left] = true
	}
	var out [][]*flexoffer.FlexOffer
	for i := 0; i < len(groups); i++ {
		if mergeWith[i] {
			merged := append(append([]*flexoffer.FlexOffer{}, groups[i]...), groups[i+1]...)
			out = append(out, merged)
			i++
			continue
		}
		out = append(out, groups[i])
	}
	return out, nil
}

// mergeLoss evaluates the relative flexibility loss of merging two
// groups, and whether the merge is admissible under the parameters.
func mergeLoss(a, b []*flexoffer.FlexOffer, p OptimizeParams, combine CombineFunc) (float64, bool, error) {
	if p.MaxGroupSize > 0 && len(a)+len(b) > p.MaxGroupSize {
		return 0, false, nil
	}
	merged := append(append([]*flexoffer.FlexOffer{}, a...), b...)
	if p.ESTTolerance >= 0 && estSpread(merged) > p.ESTTolerance {
		return 0, false, nil
	}
	before, err := p.Measure.SetValue(merged)
	if err != nil {
		return 0, false, fmt.Errorf("grouping: measuring parts: %w", err)
	}
	agg, err := combine(merged)
	if err != nil {
		return 0, false, err
	}
	after, err := p.Measure.Value(agg)
	if err != nil {
		return 0, false, fmt.Errorf("grouping: measuring merged aggregate: %w", err)
	}
	loss := before - after
	var frac float64
	switch {
	case before > 0:
		frac = loss / before
	case loss <= 0:
		frac = 0
	default:
		frac = 1
	}
	return frac, frac <= p.MaxLossFraction, nil
}

func estSpread(group []*flexoffer.FlexOffer) int {
	lo, hi := estBounds(group)
	return hi - lo
}
