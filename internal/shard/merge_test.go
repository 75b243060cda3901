package shard

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"flexmeasures/internal/flexoffer"
)

// oracleMergeRuns is the linear k-way merge MergeRuns replaced: one
// comparison against every live run's head per output entry. It is the
// oracle the galloping merge is pinned against.
func oracleMergeRuns(runs []Run) Run {
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
			a, i := runs[live[c]], idx[live[c]]
			b, j := runs[live[best]], idx[live[best]]
			if keyLess(a.ESTs[i], a.TFs[i], a.Seqs[i], b.ESTs[j], b.TFs[j], b.Seqs[j]) {
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

// randomRuns deals n entries with unique sequence numbers and keys from
// a small range (so runs interleave and share est and tf values) into
// the given run lengths, each run sorted by (est, tf, seq). offer is
// reused for every entry; the merge never looks at it.
func randomRuns(r *rand.Rand, lens []int, keys int) []Run {
	total := 0
	for _, n := range lens {
		total += n
	}
	seqs := r.Perm(total)
	offer := &flexoffer.FlexOffer{}
	runs := make([]Run, len(lens))
	next := 0
	for k, n := range lens {
		run := Run{
			Offers: make([]*flexoffer.FlexOffer, n),
			Seqs:   make([]uint64, n),
			ESTs:   make([]int, n),
			TFs:    make([]int, n),
		}
		for i := 0; i < n; i++ {
			run.Offers[i] = offer
			run.Seqs[i] = uint64(seqs[next])
			run.ESTs[i] = r.Intn(keys)
			run.TFs[i] = r.Intn(3)
			next++
		}
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		sort.Slice(perm, func(a, b int) bool {
			i, j := perm[a], perm[b]
			return keyLess(run.ESTs[i], run.TFs[i], run.Seqs[i], run.ESTs[j], run.TFs[j], run.Seqs[j])
		})
		runs[k] = permuteRun(run, perm)
	}
	return runs
}

// TestMergeRunsMatchesOracle pins the galloping pairwise merge to the
// linear k-way merge over 0–5 runs of 0–2,000 entries — finely
// interleaved, blocky and one-sided — plus a single entry against 25k.
// Each case also pins MergeDelta: the first run as the base, a random
// set of its positions dropped, the other runs merged in, against the
// oracle over the base with those entries cut out.
func TestMergeRunsMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	same := func(got, want Run) bool {
		if want.Len() == 0 {
			// The oracle's empty result has zero-capacity slices; only
			// a non-nil empty run is specified.
			return got.Len() == 0 && got.Offers != nil
		}
		return reflect.DeepEqual(got, want)
	}
	check := func(lens []int, keys int) {
		t.Helper()
		runs := randomRuns(r, lens, keys)
		if got, want := MergeRuns(runs), oracleMergeRuns(runs); !same(got, want) {
			t.Fatalf("lens %v keys %d: galloping merge differs from the k-way oracle", lens, keys)
		}
		if len(runs) == 0 {
			return
		}
		base := runs[0]
		var drop []int
		kept := Run{Offers: []*flexoffer.FlexOffer{}, Seqs: []uint64{}, ESTs: []int{}, TFs: []int{}}
		share := []int{0, 1, 10, 100}[r.Intn(4)]
		for i := 0; i < base.Len(); i++ {
			if r.Intn(100) < share {
				drop = append(drop, i)
				continue
			}
			kept.Offers = append(kept.Offers, base.Offers[i])
			kept.Seqs = append(kept.Seqs, base.Seqs[i])
			kept.ESTs = append(kept.ESTs, base.ESTs[i])
			kept.TFs = append(kept.TFs, base.TFs[i])
		}
		got := MergeDelta(base, drop, runs[1:])
		if want := oracleMergeRuns(append([]Run{kept}, runs[1:]...)); !same(got, want) {
			t.Fatalf("lens %v keys %d, %d dropped: MergeDelta differs from the k-way oracle", lens, keys, len(drop))
		}
	}
	check(nil, 1)
	for iter := 0; iter < 300; iter++ {
		lens := make([]int, r.Intn(6))
		for k := range lens {
			switch r.Intn(4) {
			case 0:
				lens[k] = 0
			case 1:
				lens[k] = 1 + r.Intn(5)
			default:
				lens[k] = r.Intn(2001)
			}
		}
		check(lens, []int{1, 4, 50, 1 << 20}[r.Intn(4)])
	}
	check([]int{1, 25000}, 1000)
	check([]int{25000, 1}, 1000)
	check([]int{25000, 25}, 64)
}

// mergeSink keeps BenchmarkMergeRuns' result live.
var mergeSink Run

// BenchmarkMergeRuns times the gather step on its two shapes: a cold
// merge of two finely interleaved 25k runs, and a warm incremental
// merge of 25 changed entries into a 50k run.
func BenchmarkMergeRuns(b *testing.B) {
	for _, bc := range []struct {
		name string
		lens []int
	}{
		{"interleaved_25k+25k", []int{25000, 25000}},
		{"delta_50k+25", []int{50000, 25}},
	} {
		runs := randomRuns(rand.New(rand.NewSource(13)), bc.lens, 1<<20)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mergeSink = MergeRuns(runs)
			}
		})
	}
}
