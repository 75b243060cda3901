package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"flexmeasures/internal/core"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/timeseries"
	"flexmeasures/internal/workload"
)

// equivCase is one workload/options combination of the equivalence
// oracle: the incremental evaluator must reproduce the legacy
// full-recompute evaluator's schedule bit for bit.
type equivCase struct {
	name string
	opts Options
}

func equivCases() []equivCase {
	return []equivCase{
		{"arrival", Options{}},
		{"arrival/capped", Options{PeakCap: 40}},
		{"arrival/tight-cap", Options{PeakCap: 5}},
		{"least-flexible", Options{Order: OrderLeastFlexibleFirst, Measure: core.VectorMeasure{}}},
		{"most-flexible/capped", Options{Order: OrderMostFlexibleFirst, Measure: core.ProductMeasure{}, PeakCap: 30}},
		{"random", Options{Order: OrderRandom}},
	}
}

// scheduleBothWays runs the same scheduling problem through the
// full-recompute oracle and Schedule's incremental evaluator (with
// independent but identically seeded rand sources for OrderRandom) and
// fails unless the results are identical.
func scheduleBothWays(t *testing.T, offers []*flexoffer.FlexOffer, target timeseries.Series, opts Options, seed int64) {
	t.Helper()
	legacyOpts, incOpts := opts, opts
	if opts.Order == OrderRandom {
		legacyOpts.Rand = rand.New(rand.NewSource(seed))
		incOpts.Rand = rand.New(rand.NewSource(seed))
	}
	legacy, errL := scheduleFullRecompute(offers, target, legacyOpts)
	inc, errI := Schedule(offers, target, incOpts)
	if (errL == nil) != (errI == nil) {
		t.Fatalf("error divergence: legacy %v, incremental %v", errL, errI)
	}
	if errL != nil {
		return
	}
	if !reflect.DeepEqual(legacy.Assignments, inc.Assignments) {
		for i := range legacy.Assignments {
			if !reflect.DeepEqual(legacy.Assignments[i], inc.Assignments[i]) {
				t.Fatalf("assignment %d diverged:\n  offer    %v\n  legacy      %v @ %d\n  incremental %v @ %d",
					i, offers[i], legacy.Assignments[i].Values, legacy.Assignments[i].Start,
					inc.Assignments[i].Values, inc.Assignments[i].Start)
			}
		}
	}
	if !legacy.Load.Equal(inc.Load) {
		t.Fatalf("load diverged:\n  legacy      %v\n  incremental %v", legacy.Load, inc.Load)
	}
}

// TestIncrementalMatchesLegacyOnWorkloads pins the equivalence on
// realistic synthetic populations (both device mixes, every order,
// with and without peak caps).
func TestIncrementalMatchesLegacyOnWorkloads(t *testing.T) {
	mixes := []struct {
		name string
		mix  workload.Mix
	}{
		{"default", workload.DefaultMix()},
		{"consumption", workload.ConsumptionMix()},
	}
	for _, m := range mixes {
		for _, c := range equivCases() {
			t.Run(m.name+"/"+c.name, func(t *testing.T) {
				r := rand.New(rand.NewSource(1234))
				offers, err := workload.Population(r, 120, 2, m.mix)
				if err != nil {
					t.Fatal(err)
				}
				var expected int64
				for _, f := range offers {
					expected += (f.TotalMin + f.TotalMax) / 2
				}
				horizon := 3 * workload.SlotsPerDay
				target := workload.WindProfile(r, horizon, expected/int64(horizon))
				scheduleBothWays(t, offers, target, c.opts, 77)
			})
		}
	}
}

// TestIncrementalMatchesLegacyRandomized hammers the equivalence with
// adversarial random offers (mixed signs, tight totals, varying
// windows) against random targets, including negative target values
// and caps.
func TestIncrementalMatchesLegacyRandomized(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		offers := make([]*flexoffer.FlexOffer, 1+r.Intn(8))
		for i := range offers {
			offers[i] = randomOfferForSched(r)
		}
		targetVals := make([]int64, 4+r.Intn(12))
		for i := range targetVals {
			targetVals[i] = int64(r.Intn(13) - 4)
		}
		target := timeseries.New(r.Intn(4), targetVals...)
		opts := Options{}
		switch r.Intn(3) {
		case 1:
			opts.PeakCap = int64(1 + r.Intn(6))
		case 2:
			opts.Order = OrderLeastFlexibleFirst
			opts.Measure = core.VectorMeasure{}
		}
		scheduleBothWays(t, offers, target, opts, seed)
	}
}

// TestIncrementalEmptyTarget covers the empty-target path (the
// evaluator's window is grown entirely by the offers).
func TestIncrementalEmptyTarget(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	offers := make([]*flexoffer.FlexOffer, 6)
	for i := range offers {
		offers[i] = randomOfferForSched(r)
	}
	scheduleBothWays(t, offers, timeseries.Series{}, Options{}, 0)
	scheduleBothWays(t, offers, timeseries.Series{}, Options{PeakCap: 3}, 0)
}

// TestPlaceCandidateLoopZeroAllocs pins the tentpole property: once the
// evaluator's window and scratch buffers cover the offer, placing it —
// the entire candidate-evaluation loop plus the commit — performs zero
// heap allocations.
func TestPlaceCandidateLoopZeroAllocs(t *testing.T) {
	target := timeseries.Constant(0, 48, 25)
	f := flexoffer.MustNew(2, 30,
		flexoffer.Slice{Min: 0, Max: 9},
		flexoffer.Slice{Min: 2, Max: 7},
		flexoffer.Slice{Min: 0, Max: 5})
	for _, cap := range []int64{0, 10} {
		ev := newEvaluator(target, cap)
		ev.reserve([]*flexoffer.FlexOffer{f})
		allocs := testing.AllocsPerRun(200, func() {
			if _, ok := ev.place(f); !ok {
				t.Fatal("placement failed")
			}
		})
		if allocs != 0 {
			t.Errorf("cap=%d: candidate evaluation allocated %.1f/op, want 0", cap, allocs)
		}
	}
}

// TestRepairTotalWaterFill pins the headroom-greedy repair semantics.
func TestRepairTotalWaterFill(t *testing.T) {
	s := func(min, max int64) flexoffer.Slice { return flexoffer.Slice{Min: min, Max: max} }

	// Raise: the roomiest slot absorbs down to the runner-up level, then
	// the remainder spreads evenly (index order breaks ties).
	vals := []int64{0, 0}
	if !repairTotal(vals, []flexoffer.Slice{s(0, 3), s(0, 10)}, 9, 20) {
		t.Fatal("repair failed")
	}
	// Rooms 3 and 10: slot 1 absorbs 7 to level with slot 0, the
	// remaining 2 split 1/1.
	if vals[0] != 1 || vals[1] != 8 {
		t.Errorf("raise = %v, want [1 8]", vals)
	}

	// Even split with index-order remainder.
	vals = []int64{0, 0, 0}
	if !repairTotal(vals, []flexoffer.Slice{s(0, 5), s(0, 5), s(0, 5)}, 8, 15) {
		t.Fatal("repair failed")
	}
	if vals[0] != 3 || vals[1] != 3 || vals[2] != 2 {
		t.Errorf("even raise = %v, want [3 3 2]", vals)
	}

	// Lower: drains the most-spare slots first.
	vals = []int64{5, 1}
	if !repairTotal(vals, []flexoffer.Slice{s(0, 5), s(0, 5)}, 0, 2) {
		t.Fatal("repair failed")
	}
	if vals[0] != 1 || vals[1] != 1 {
		t.Errorf("lower = %v, want [1 1]", vals)
	}

	// Infeasible: no headroom at all.
	vals = []int64{2}
	if repairTotal(vals, []flexoffer.Slice{s(2, 2)}, 5, 6) {
		t.Error("repair of an unreachable total must fail")
	}

	// Determinism: identical inputs give identical outputs.
	a := []int64{0, 0, 0, 0}
	b := []int64{0, 0, 0, 0}
	slices := []flexoffer.Slice{s(0, 7), s(0, 2), s(0, 7), s(0, 4)}
	repairTotal(a, slices, 13, 20)
	repairTotal(b, slices, 13, 20)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repair not deterministic: %v vs %v", a, b)
	}
}

// BenchmarkPlaceIncremental measures the per-offer candidate-evaluation
// cost of the incremental evaluator; allocs/op must be 0.
func BenchmarkPlaceIncremental(b *testing.B) {
	target := timeseries.Constant(0, 96, 25)
	f := flexoffer.MustNew(0, 90,
		flexoffer.Slice{Min: 0, Max: 9},
		flexoffer.Slice{Min: 2, Max: 7},
		flexoffer.Slice{Min: 0, Max: 5})
	ev := newEvaluator(target, 0)
	ev.reserve([]*flexoffer.FlexOffer{f})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ev.place(f); !ok {
			b.Fatal("placement failed")
		}
	}
}

// BenchmarkSchedule1000 compares the incremental delta evaluator
// against the full-recompute oracle on the same 1000-offer workload,
// with allocation reporting. The candidate-evaluation loop of the
// incremental path does zero allocations (pinned by
// TestPlaceCandidateLoopZeroAllocs and BenchmarkPlaceIncremental); the
// allocs/op reported here are the per-offer result materialization
// (one Values slice per assignment) plus the fixed evaluator buffers.
func BenchmarkSchedule1000(b *testing.B) {
	offers, err := workload.Population(rand.New(rand.NewSource(99)), 1000, 3, workload.DefaultMix())
	if err != nil {
		b.Fatal(err)
	}
	target := workload.WindProfile(rand.New(rand.NewSource(7)), 4*workload.SlotsPerDay, 50)
	for _, bc := range []struct {
		name     string
		schedule func([]*flexoffer.FlexOffer, timeseries.Series, Options) (*Result, error)
		opts     Options
	}{
		{"incremental", Schedule, Options{}},
		{"legacy", scheduleFullRecompute, Options{}},
		{"incremental-capped", Schedule, Options{PeakCap: 120}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.schedule(offers, target, bc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
