package core_test

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"flexmeasures/internal/core"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/timeseries"
	"flexmeasures/internal/workload"
)

// rowMeasures is the oracle of MeasureRow under norm n: the eight
// measures in Table 1 order, as Engine.Measures evaluates them.
func rowMeasures(n timeseries.Norm) []core.Measure {
	return []core.Measure{
		core.TimeMeasure{},
		core.EnergyMeasure{},
		core.ProductMeasure{},
		core.VectorMeasure{NormKind: n},
		core.SeriesMeasure{NormKind: n, Aligned: true},
		core.AssignmentsMeasure{},
		core.AbsoluteAreaMeasure{},
		core.RelativeAreaMeasure{},
	}
}

// checkMeasureRow compares MeasureRow on every offer with the eight
// Measure.Value calls, Float64bits-exact (an undefined value is
// math.NaN() on both sides) and the assignments cell also with the
// big-integer count, and the row fold's product with the naive
// big-integer product.
func checkMeasureRow(t *testing.T, name string, fs []*flexoffer.FlexOffer, n timeseries.Norm) {
	t.Helper()
	ms := rowMeasures(n)
	if len(ms) != core.RowWidth {
		t.Fatalf("%d oracle measures, RowWidth %d", len(ms), core.RowWidth)
	}
	var acc core.AssignmentsProduct
	row := make([]float64, core.RowWidth)
	for i, f := range fs {
		core.MeasureRow(row, f, n, &acc)
		for j, m := range ms {
			want, err := m.Value(f)
			if err != nil {
				want = math.NaN()
			}
			if math.Float64bits(row[j]) != math.Float64bits(want) {
				t.Fatalf("%s norm %d: offer %d %v: %s cell = %v (%#x), Value = %v (%#x)",
					name, n, i, f, m.Name(), row[j], math.Float64bits(row[j]), want, math.Float64bits(want))
			}
		}
		// Value and the row share one count kernel; pin the cell to the
		// big-integer count as well.
		exact, _ := new(big.Float).SetInt(core.AssignmentFlexibility(f)).Float64()
		if got := row[core.CellAssignments]; math.Float64bits(got) != math.Float64bits(exact) {
			t.Fatalf("%s: offer %d %v: assignments cell = %v, big-integer count = %v", name, i, f, got, exact)
		}
	}
	if len(fs) == 0 {
		return
	}
	want := naiveAssignmentsSetValue(fs)
	if got := acc.Value(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s norm %d: row-folded product = %v (%#x), naive product = %v (%#x)",
			name, n, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestMeasureRowMatchesMeasures pins MeasureRow to the eight
// Measure.Value cells under every norm, on workload fleets, the
// paper's Figure 1 offers, and mixed, negative, zero-total and
// huge-count offers (literal offers that bypass Validate, so spans,
// time flexibility and counts may be negative or zero), and checks the
// row evaluator allocates nothing.
func TestMeasureRowMatchesMeasures(t *testing.T) {
	sl := func(min, max int64) flexoffer.Slice { return flexoffer.Slice{Min: min, Max: max} }
	paper := []*flexoffer.FlexOffer{
		flexoffer.MustNew(1, 6, sl(1, 3), sl(2, 4), sl(0, 5), sl(0, 3)), // Figure 1
		flexoffer.MustNew(0, 1, sl(0, 1)),                               // f1
		flexoffer.MustNew(0, 2, sl(0, 2)),                               // f2
		flexoffer.MustNew(0, 4, sl(2, 2)),                               // f4
		flexoffer.MustNew(0, 4, sl(1, 1), sl(2, 2)),                     // f5
		flexoffer.MustNew(0, 2, sl(-1, 2), sl(-4, -1), sl(-3, 1)),       // f6, mixed
		flexoffer.MustNew(1, 3, sl(101, 105)),                           // fy
	}
	edge := []*flexoffer.FlexOffer{
		// Mixed with totals, negative only, and zero totals (relative
		// area undefined).
		{EarliestStart: 1, LatestStart: 4, Slices: []flexoffer.Slice{sl(-3, 4), sl(-1, 2)}, TotalMin: -2, TotalMax: 5},
		{EarliestStart: 0, LatestStart: 3, Slices: []flexoffer.Slice{sl(-5, -1), sl(-2, 0)}, TotalMin: -7, TotalMax: -1},
		{EarliestStart: 2, LatestStart: 5, Slices: []flexoffer.Slice{sl(-2, 2), sl(0, 1)}},
		{EarliestStart: 0, LatestStart: 0, Slices: []flexoffer.Slice{sl(0, 0)}},
		// No slices at all.
		{EarliestStart: 3, LatestStart: 7},
		// Zero, negative and int64-wrapping factors.
		countOffer(2, -1, 7),
		countOffer(3, -3, 5),
		{EarliestStart: 5, LatestStart: 1, Slices: []flexoffer.Slice{sl(0, 2)}},
		{EarliestStart: 3, LatestStart: 2, Slices: []flexoffer.Slice{sl(0, 4)}},
		{EarliestStart: 0, LatestStart: 1, Slices: []flexoffer.Slice{sl(math.MinInt64, math.MaxInt64), sl(math.MaxInt64, math.MinInt64)}},
		// Counts above 2^64, at 2^1023, and at 2^1024 (+Inf).
		countOffer(2, math.MaxInt64-1, 1),
		countOffer(0, append([]int64{1<<31 - 1}, repeat64(1<<62-1, 16)...)...),
		countOffer(1, repeat64(1<<31-1, 32)...),
		countOffer(3, append(repeat64(1<<62-1, 40), -3)...),
	}
	fleets := map[string][]*flexoffer.FlexOffer{"paper": paper, "edge": edge, "empty": nil}
	rng := rand.New(rand.NewSource(24))
	for name, mix := range map[string]workload.Mix{"default": workload.DefaultMix(), "consumption": workload.ConsumptionMix()} {
		fs, err := workload.Population(rng, 2000, 2, mix)
		if err != nil {
			t.Fatal(err)
		}
		fleets[name] = fs
	}
	for name, fs := range fleets {
		for _, n := range []timeseries.Norm{timeseries.L1, timeseries.L2, timeseries.LInf} {
			checkMeasureRow(t, name, fs, n)
		}
	}
	// The zero norm is L1, as for VectorMeasure; an unknown norm
	// leaves the vector and series cells NaN.
	checkMeasureRow(t, "paper", paper, 0)
	checkMeasureRow(t, "paper", paper, timeseries.Norm(9))

	var acc core.AssignmentsProduct
	row := make([]float64, core.RowWidth)
	for _, f := range append(paper, edge[:4]...) {
		if allocs := testing.AllocsPerRun(20, func() { core.MeasureRow(row, f, timeseries.L2, &acc) }); allocs != 0 {
			t.Errorf("MeasureRow(%v): %v allocs, want 0", f, allocs)
		}
	}
}

// fuzzBytes reads a hostile offer's fields from fuzz input, yielding
// zeros once the input is exhausted.
type fuzzBytes []byte

func (b *fuzzBytes) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// int64 reads a width selector, then 1, 2, 4 or 8 big-endian bytes,
// sign-extended: small values are common, and the int64 extremes,
// whose spans wrap, reachable.
func (b *fuzzBytes) int64() int64 {
	n := 1 << (b.byte() & 3)
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<8 | uint64(b.byte())
	}
	shift := 64 - 8*n
	return int64(v<<shift) >> shift
}

// fuzzOffer decodes an offer without validating it: start and time
// flexibility in [−128, 127], up to 32 slices, and arbitrary int64
// slice bounds and totals.
func fuzzOffer(data []byte) *flexoffer.FlexOffer {
	b := fuzzBytes(data)
	es := int(int8(b.byte()))
	f := &flexoffer.FlexOffer{EarliestStart: es, LatestStart: es + int(int8(b.byte()))}
	for n := b.byte() % 33; n > 0; n-- {
		f.Slices = append(f.Slices, flexoffer.Slice{Min: b.int64(), Max: b.int64()})
	}
	f.TotalMin, f.TotalMax = b.int64(), b.int64()
	return f
}

// FuzzMeasureRow differentially fuzzes MeasureRow against the eight
// Measure.Value cells on hostile offers under norms 0–4 (0 is L1, 4 is
// unknown), and the row-folded assignments product against the naive
// product over the offer alone and in a fleet with fixed neighbours.
func FuzzMeasureRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, norm uint8) {
		fo := fuzzOffer(data)
		n := timeseries.Norm(norm % 5)
		checkMeasureRow(t, "fuzz", []*flexoffer.FlexOffer{fo}, n)
		checkMeasureRow(t, "fuzz fleet", []*flexoffer.FlexOffer{countOffer(3, 5), fo, countOffer(1, 1<<62-1), fo}, n)
	})
}
