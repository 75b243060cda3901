package core_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"flexmeasures/internal/core"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/timeseries"
	"flexmeasures/internal/workload"
)

// alignedSeriesReference is Definition 7 with both extremes aligned,
// written as the series computation it abbreviates: the minimum and
// maximum assignments, the maximum moved to the minimum's start, their
// difference, then the norm.
func alignedSeriesReference(f *flexoffer.FlexOffer, n timeseries.Norm) (float64, error) {
	mn := f.MinAssignment()
	mx := f.MaxAssignment()
	mx.Start = mn.Start
	return timeseries.Sub(mx.Series(), mn.Series()).NormValue(n)
}

// TestAlignedSeriesMatchesDefinition pins the slice-span kernel of
// AlignedSeriesFlexibility to the series form, Float64bits-exact, under
// every norm: empty, single-slice, negative and mixed profiles, spans
// large enough to round, inverted slices, and random DefaultMix
// fleets. The kernel must not allocate, and an unknown norm must still
// fail with ErrBadNorm.
func TestAlignedSeriesMatchesDefinition(t *testing.T) {
	sl := func(min, max int64) flexoffer.Slice { return flexoffer.Slice{Min: min, Max: max} }
	offers := []*flexoffer.FlexOffer{
		{EarliestStart: 0, LatestStart: 0},
		{EarliestStart: 3, LatestStart: 9, Slices: []flexoffer.Slice{sl(1, 5)}},
		{EarliestStart: 0, LatestStart: 4, Slices: []flexoffer.Slice{sl(-7, -2), sl(-4, -4), sl(-9, 0)}},
		{EarliestStart: 0, LatestStart: 2, Slices: []flexoffer.Slice{sl(-1, 2), sl(-4, -1), sl(-3, 1)}},
		{EarliestStart: 1, LatestStart: 1, Slices: []flexoffer.Slice{sl(0, 0), sl(3, 3)}},
		{EarliestStart: 0, LatestStart: 5, Slices: []flexoffer.Slice{sl(0, 1<<53+1), sl(-1<<40, 1<<41), sl(0, 3)}},
		{EarliestStart: 2, LatestStart: 3, Slices: []flexoffer.Slice{sl(0, 1e15), sl(0, 1e15+7), sl(0, 1)}},
		// Unvalidated: inverted slices make the spans negative.
		{EarliestStart: 0, LatestStart: 1, Slices: []flexoffer.Slice{sl(5, 2), sl(0, 1), sl(9, -30)}},
	}
	rng := rand.New(rand.NewSource(17))
	for _, days := range []int{1, 3} {
		fleet, err := workload.Population(rng, 400, days, workload.DefaultMix())
		if err != nil {
			t.Fatal(err)
		}
		offers = append(offers, fleet...)
	}
	for _, n := range []timeseries.Norm{timeseries.L1, timeseries.L2, timeseries.LInf} {
		for i, f := range offers {
			want, err := alignedSeriesReference(f, n)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.AlignedSeriesFlexibility(f, n)
			if err != nil {
				t.Fatalf("norm %v offer %d: %v", n, i, err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("norm %v offer %d: kernel %v (%#x), series form %v (%#x)",
					n, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		f := offers[len(offers)-1]
		if allocs := testing.AllocsPerRun(100, func() {
			_, _ = core.AlignedSeriesFlexibility(f, n)
		}); allocs != 0 {
			t.Errorf("norm %v: %v allocs per call, want 0", n, allocs)
		}
	}
	for _, f := range offers[:2] {
		if _, err := core.AlignedSeriesFlexibility(f, timeseries.Norm(99)); !errors.Is(err, timeseries.ErrBadNorm) {
			t.Errorf("unknown norm: err = %v, want ErrBadNorm", err)
		}
	}
}
