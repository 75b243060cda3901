package core_test

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"flexmeasures/internal/core"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/workload"
)

// naiveAssignmentsSetValue is the straightforward set rule: one
// accumulator multiplied by every offer's count in turn, converted once.
// It is the oracle SetValue's bounded product must reproduce bit for
// bit.
func naiveAssignmentsSetValue(fs []*flexoffer.FlexOffer) float64 {
	total := big.NewInt(1)
	for _, f := range fs {
		total.Mul(total, core.AssignmentFlexibility(f))
	}
	v, _ := new(big.Float).SetInt(total).Float64()
	return v
}

// countOffer builds an offer whose Definition 8 count is
// (tf+1)·∏(span_i+1), without validation, so spans may be negative.
func countOffer(tf int, spans ...int64) *flexoffer.FlexOffer {
	f := &flexoffer.FlexOffer{EarliestStart: 0, LatestStart: tf}
	for _, s := range spans {
		f.Slices = append(f.Slices, flexoffer.Slice{Min: 0, Max: s})
	}
	return f
}

// repeat returns n copies of f.
func repeat(f *flexoffer.FlexOffer, n int) []*flexoffer.FlexOffer {
	out := make([]*flexoffer.FlexOffer, n)
	for i := range out {
		out[i] = f
	}
	return out
}

// TestAssignmentsSetValueMatchesNaiveProduct pins the bounded product
// to the naive one, and each offer's Value to its big-integer count,
// Float64bits-exact: around 2^1023, 2^1024 and
// MaxFloat64's rounding edge, through counts above 2^64, zero and
// negative factors (literal offers that bypass Validate), and on
// random DefaultMix fleets.
func TestAssignmentsSetValueMatchesNaiveProduct(t *testing.T) {
	// 2^63 per offer: the largest power of two a uint64 count holds.
	pow63 := countOffer(1, 1<<62-1)
	// 3 · (2^63−1) · 2 > 2^64: the count needs the big-integer path.
	huge := countOffer(2, math.MaxInt64-1, 1)
	// scaled is the count n times 2^k.
	scaled := func(n int64, k int) []*flexoffer.FlexOffer {
		return append([]*flexoffer.FlexOffer{countOffer(0, n-1)}, repeat(countOffer(1), k)...)
	}
	type tc struct {
		name string
		fs   []*flexoffer.FlexOffer
	}
	cases := []tc{
		{"single", []*flexoffer.FlexOffer{countOffer(3, 2, 4)}},
		{"single above 2^64", []*flexoffer.FlexOffer{huge}},
		// Counts a uint64 holds but a float64 mantissa does not:
		// 2^53+1 and 2^64−1 = (2^32+1)(2^32−1) round to even.
		{"single 2^53+1", []*flexoffer.FlexOffer{countOffer(0, 1<<53)}},
		{"single 2^64-1", []*flexoffer.FlexOffer{countOffer(0, 1<<32, 1<<32-2)}},
		{"all ones", repeat(countOffer(0, 0, 0), 100)},
		{"2^1023", append(repeat(pow63, 16), countOffer(1, 1<<14-1))},
		{"2^1024", repeat(countOffer(1, 1<<31-1), 32)},
		{"2^1024 from 2^63 counts", append(repeat(pow63, 16), countOffer(1, 1<<15-1))},
		{"MaxFloat64", scaled(1<<53-1, 971)},
		// (2^54−1)·2^970 is MaxFloat64 plus half an ulp, the edge
		// where round-half-to-even turns to +Inf.
		{"just below the rounding edge", scaled(1<<62-257, 962)},
		{"on the rounding edge", scaled(1<<54-1, 970)},
		{"above 2^64", []*flexoffer.FlexOffer{huge, huge, countOffer(4, 6)}},
		{"zero factor", []*flexoffer.FlexOffer{countOffer(3, 5), countOffer(2, -1, 7), huge}},
		{"zero after overflow", append(repeat(pow63, 40), countOffer(1, -1))},
		{"negative factor", []*flexoffer.FlexOffer{countOffer(3, 5), countOffer(2, -3)}},
		{"two negatives", []*flexoffer.FlexOffer{countOffer(3, -5), countOffer(2, -3), countOffer(1, 9)}},
		{"negative time flexibility", []*flexoffer.FlexOffer{
			{EarliestStart: 5, LatestStart: 1, Slices: []flexoffer.Slice{{Min: 0, Max: 2}}},
		}},
		{"negative overflow", append(repeat(pow63, 20), countOffer(0, -3))},
		{"positive overflow", append(repeat(pow63, 20), countOffer(0, -3), countOffer(0, -2))},
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 7, 40, 300, 1000} {
		fs, err := workload.Population(rng, n, 2, workload.DefaultMix())
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("DefaultMix n=%d", n), fs})
	}
	for _, c := range cases {
		for i, f := range c.fs {
			want, _ := new(big.Float).SetInt(core.AssignmentFlexibility(f)).Float64()
			got, err := core.AssignmentsMeasure{}.Value(f)
			if err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: offer %d: Value = %v, %v, want %v", c.name, i, got, err, want)
			}
		}
		want := naiveAssignmentsSetValue(c.fs)
		got, err := core.AssignmentsMeasure{}.SetValue(c.fs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: SetValue = %v (%#x), naive product = %v (%#x)",
				c.name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestAssignmentsValueWideCounts pins Value on single offers whose
// count exceeds a uint64 — evaluated on fixed-width words, without
// allocating — to the big-integer count, and SetValue over such offers
// to the naive product, Float64bits-exact: random
// factor sizes from 1 to 63 bits, counts up to and past 2^1024,
// products that are exact halves between two float64s, and the
// rounding edge below MaxFloat64.
func TestAssignmentsValueWideCounts(t *testing.T) {
	offers := []*flexoffer.FlexOffer{
		// (2^53+1)·2^64: an exact half between two float64s, which
		// rounds down to even.
		countOffer(0, 1<<53, 1<<32-1, 1<<32-1),
		// (2^53+3)·2^64: an exact half that rounds up to even.
		countOffer(0, 1<<53+2, 1<<32-1, 1<<32-1),
		// (2^53+1)·(2^64−1): just below an exact half.
		countOffer(0, 1<<53, 1<<32, 1<<32-2),
		// 2^1023 and 2^1024: the last finite power and the first +Inf.
		countOffer(0, append([]int64{1<<31 - 1}, repeat64(1<<62-1, 16)...)...),
		countOffer(1, repeat64(1<<31-1, 32)...),
		// (2^54−1)·2^970 is MaxFloat64 plus half an ulp, which rounds
		// to +Inf; (2^62−257)·2^962 stays just below it.
		countOffer(0, append([]int64{1<<54 - 2}, repeat64(1, 970)...)...),
		countOffer(0, append([]int64{1<<62 - 258}, repeat64(1, 962)...)...),
		// A zero factor after the words have overflowed: the count is 0.
		countOffer(3, append(repeat64(1<<62-1, 40), -1)...),
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 400; i++ {
		spans := make([]int64, 2+rng.Intn(24))
		for j := range spans {
			spans[j] = rng.Int63n(int64(1)<<(1+rng.Intn(62))) + 1
		}
		offers = append(offers, countOffer(rng.Intn(5000), spans...))
	}
	for i, f := range offers {
		want, _ := new(big.Float).SetInt(core.AssignmentFlexibility(f)).Float64()
		got, err := core.AssignmentsMeasure{}.Value(f)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("offer %d: Value = %v (%#x), %v, want %v (%#x)",
				i, got, math.Float64bits(got), err, want, math.Float64bits(want))
		}
	}
	// The set product over wide counts, multiplied in factor by factor.
	for _, fs := range [][]*flexoffer.FlexOffer{offers[:3], offers[3:4], offers[5:7], offers[9:12], offers[9:], offers} {
		want := naiveAssignmentsSetValue(fs)
		if got, err := (core.AssignmentsMeasure{}).SetValue(fs); err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("SetValue of %d wide counts = %v, %v, want %v", len(fs), got, err, want)
		}
	}
	wide := offers[3]
	if allocs := testing.AllocsPerRun(100, func() { _, _ = core.AssignmentsMeasure{}.Value(wide) }); allocs != 0 {
		t.Errorf("Value of a count above 2^64: %v allocs, want 0", allocs)
	}
}

// repeat64 returns n copies of v.
func repeat64(v int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func BenchmarkAssignmentsSetValue50k(b *testing.B) {
	fs, err := workload.Population(rand.New(rand.NewSource(99)), 50000, 3, workload.DefaultMix())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (core.AssignmentsMeasure{}).SetValue(fs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAssignmentsFoldSplitMatchesSetValue pins the mergeable product:
// any split of a fleet into contiguous blocks, each folded on its own
// with Add (some of them empty) and merged in any order, equals
// SetValue and the naive product, Float64bits-exact — over zero,
// negative (mixed-sign), wide and overflowing counts and around the
// 2^1024 boundary.
func TestAssignmentsFoldSplitMatchesSetValue(t *testing.T) {
	pow63 := countOffer(1, 1<<62-1)
	wide := countOffer(0, append([]int64{1<<31 - 1}, repeat64(1<<62-1, 16)...)...) // 2^1023
	rng := rand.New(rand.NewSource(24))
	mixed, err := workload.Population(rng, 500, 2, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	fleets := map[string][]*flexoffer.FlexOffer{
		"one":                 {countOffer(3, 2, 4)},
		"all ones":            repeat(countOffer(0, 0, 0), 50),
		"zero count":          {countOffer(3, 5), countOffer(2, -1, 7), pow63, countOffer(1, -3)},
		"zero after overflow": append(repeat(pow63, 40), countOffer(1, -1)),
		"negative counts":     {countOffer(3, -5), countOffer(2, -3), countOffer(1, 9), countOffer(0, -2)},
		"zero time factor after overflow": append(repeat(pow63, 40),
			&flexoffer.FlexOffer{EarliestStart: 3, LatestStart: 2, Slices: []flexoffer.Slice{{Min: 0, Max: 4}}}),
		"two negatives":      {countOffer(3, -5), countOffer(1, 9), countOffer(2, -3), countOffer(0, 4)},
		"negative overflow":  append(repeat(pow63, 20), countOffer(0, -3)),
		"positive overflow":  append(append(repeat(pow63, 10), countOffer(0, -3)), append(repeat(pow63, 10), countOffer(0, -2))...),
		"wide counts":        {countOffer(2, math.MaxInt64-1, 1), countOffer(0, 1<<53, 1<<32-1, 1<<32-1), countOffer(4, 6)},
		"2^1023 alone":       {wide},
		"2^1023 by parts":    append(repeat(pow63, 16), countOffer(1, 1<<14-1)),
		"2^1024":             repeat(countOffer(1, 1<<31-1), 32),
		"2^1024 from 2^1023": {wide, countOffer(1)},
		"MaxFloat64 edge":    append([]*flexoffer.FlexOffer{countOffer(0, 1<<54-2)}, repeat(countOffer(1), 970)...),
		"below the edge":     append([]*flexoffer.FlexOffer{countOffer(0, 1<<62-258)}, repeat(countOffer(1), 962)...),
		"DefaultMix":         mixed,
		"DefaultMix and negative": append(append(append([]*flexoffer.FlexOffer(nil), mixed[:200]...),
			countOffer(0, -2)), mixed[200:]...),
	}
	for name, fs := range fleets {
		want, err := core.AssignmentsMeasure{}.SetValue(fs)
		if err != nil {
			t.Fatal(err)
		}
		if naive := naiveAssignmentsSetValue(fs); math.Float64bits(want) != math.Float64bits(naive) {
			t.Fatalf("%s: SetValue = %v, naive product = %v", name, want, naive)
		}
		for trial := 0; trial < 40; trial++ {
			// Cut points with repeats, so some blocks are empty.
			k := 1 + rng.Intn(12)
			cuts := []int{0, len(fs)}
			for i := 1; i < k; i++ {
				cuts = append(cuts, rng.Intn(len(fs)+1))
			}
			sort.Ints(cuts)
			blocks := make([]core.AssignmentsProduct, len(cuts)-1)
			for b := range blocks {
				for _, f := range fs[cuts[b]:cuts[b+1]] {
					blocks[b].Add(f)
				}
			}
			var got core.AssignmentsProduct
			for _, b := range rng.Perm(len(blocks)) {
				got.Merge(&blocks[b])
			}
			if v := got.Value(); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%s: blocks %v merged = %v (%#x), SetValue = %v (%#x)",
					name, cuts, v, math.Float64bits(v), want, math.Float64bits(want))
			}
			// Merging into a non-empty block, as a fold over the
			// blocks without a fresh accumulator does.
			first := blocks[0]
			for _, b := range blocks[1:] {
				first.Merge(&b)
			}
			if v := first.Value(); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%s: blocks %v folded into the first = %v, SetValue = %v", name, cuts, v, want)
			}
		}
	}
	var empty core.AssignmentsProduct
	empty.Merge(&core.AssignmentsProduct{})
	if v := empty.Value(); v != 1 {
		t.Errorf("empty product = %v, want 1", v)
	}
}
