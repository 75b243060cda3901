package sched

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/timeseries"
)

func TestImproveNeverWorsens(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	offers := make([]*flexoffer.FlexOffer, 40)
	for i := range offers {
		offers[i] = randomOfferForSched(r)
	}
	targetVals := make([]int64, 16)
	for i := range targetVals {
		targetVals[i] = int64(r.Intn(10))
	}
	target := timeseries.New(0, targetVals...)
	base, err := Schedule(offers, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	improved, err := Improve(offers, target, base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if improved.Imbalance(target) > base.Imbalance(target) {
		t.Errorf("Improve worsened imbalance: %g → %g",
			base.Imbalance(target), improved.Imbalance(target))
	}
	for i, a := range improved.Assignments {
		if err := offers[i].ValidateAssignment(a); err != nil {
			t.Errorf("assignment %d invalid after Improve: %v", i, err)
		}
	}
}

func TestImproveFixesGreedyMistake(t *testing.T) {
	// The greedy places the first offer on the only bump, forcing the
	// second (inflexible at that slot) to collide; re-placement moves
	// the flexible one away.
	flexible := flexoffer.MustNew(0, 4, sl(2, 2))
	rigid := flexoffer.MustNew(1, 1, sl(2, 2))
	offers := []*flexoffer.FlexOffer{flexible, rigid}
	target := timeseries.New(1, 2, 0, 2) // bumps at t=1 and t=3
	base, err := Schedule(offers, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	improved, err := Improve(offers, target, base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if improved.Imbalance(target) != 0 {
		t.Errorf("imbalance after Improve = %g, want 0 (flexible offer should move to t=3)",
			improved.Imbalance(target))
	}
	if improved.Assignments[0].Start != 3 {
		t.Errorf("flexible offer start = %d, want 3", improved.Assignments[0].Start)
	}
}

func TestImproveDoesNotMutateInput(t *testing.T) {
	offers := []*flexoffer.FlexOffer{flexoffer.MustNew(0, 4, sl(2, 2))}
	target := timeseries.New(3, 2)
	base := &Result{
		Assignments: []flexoffer.Assignment{flexoffer.NewAssignment(0, 2)},
		Load:        timeseries.New(0, 2),
	}
	if _, err := Improve(offers, target, base, 0); err != nil {
		t.Fatal(err)
	}
	if base.Assignments[0].Start != 0 || base.Load.At(0) != 2 {
		t.Error("Improve mutated its input result")
	}
}

func TestImproveRejectsMismatchedResult(t *testing.T) {
	offers := []*flexoffer.FlexOffer{flexoffer.MustNew(0, 4, sl(2, 2))}
	if _, err := Improve(offers, timeseries.Series{}, nil, 0); !errors.Is(err, ErrResultMismatch) {
		t.Errorf("nil result = %v", err)
	}
	bad := &Result{Assignments: []flexoffer.Assignment{flexoffer.NewAssignment(9, 2)}}
	if _, err := Improve(offers, timeseries.Series{}, bad, 0); !errors.Is(err, ErrResultMismatch) {
		t.Errorf("invalid assignment = %v", err)
	}
}

// TestScheduleAndImprove pins the two-phase workflow: greedy Schedule,
// then Improve on its result, reaches a perfect fit where the greedy
// pass alone cannot.
func TestScheduleAndImprove(t *testing.T) {
	offers := []*flexoffer.FlexOffer{
		flexoffer.MustNew(0, 4, sl(2, 2)),
		flexoffer.MustNew(1, 1, sl(2, 2)),
	}
	target := timeseries.New(1, 2, 0, 2)
	base, err := Schedule(offers, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Imbalance(target) == 0 {
		t.Fatal("greedy pass already fits: the fixture no longer needs Improve")
	}
	res, err := Improve(offers, target, base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Imbalance(target) != 0 {
		t.Errorf("imbalance = %g, want 0", res.Imbalance(target))
	}
}

// TestPropertyImproveIncrementalEquivalence pins the headline claim of
// the incremental local search: for random fleets, targets and round
// caps it produces exactly the refined schedule the legacy
// full-recompute loop produces — same assignments, same load series.
func TestPropertyImproveIncrementalEquivalence(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		offers := make([]*flexoffer.FlexOffer, 1+r.Intn(12))
		for i := range offers {
			offers[i] = randomOfferForSched(r)
		}
		vals := make([]int64, 14)
		for i := range vals {
			vals[i] = int64(r.Intn(9) - 2)
		}
		target := timeseries.New(r.Intn(3), vals...)
		base, err := Schedule(offers, target, Options{})
		if err != nil {
			return false
		}
		maxRounds := r.Intn(4) // 0 = until convergence
		legacy, err := improveFullRecompute(offers, target, base, maxRounds)
		if err != nil {
			return false
		}
		incremental, err := Improve(offers, target, base, maxRounds)
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(legacy.Assignments, incremental.Assignments) {
			return false
		}
		return legacy.Load.Equal(incremental.Load)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// improveBenchFleet builds a reproducible fleet and greedy schedule for
// the Improve benchmarks.
func improveBenchFleet(b *testing.B, n int) ([]*flexoffer.FlexOffer, timeseries.Series, *Result) {
	b.Helper()
	r := rand.New(rand.NewSource(5))
	offers := make([]*flexoffer.FlexOffer, n)
	for i := range offers {
		offers[i] = randomOfferForSched(r)
	}
	vals := make([]int64, 32)
	for i := range vals {
		vals[i] = int64(r.Intn(12))
	}
	target := timeseries.New(0, vals...)
	base, err := Schedule(offers, target, Options{})
	if err != nil {
		b.Fatal(err)
	}
	return offers, target, base
}

func BenchmarkImprove200(b *testing.B) {
	offers, target, base := improveBenchFleet(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Improve(offers, target, base, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImprove200Legacy(b *testing.B) {
	offers, target, base := improveBenchFleet(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := improveFullRecompute(offers, target, base, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPropertyImproveMonotoneAndValid(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		offers := make([]*flexoffer.FlexOffer, 1+r.Intn(8))
		for i := range offers {
			offers[i] = randomOfferForSched(r)
		}
		vals := make([]int64, 12)
		for i := range vals {
			vals[i] = int64(r.Intn(8) - 1)
		}
		target := timeseries.New(0, vals...)
		base, err := Schedule(offers, target, Options{})
		if err != nil {
			return false
		}
		improved, err := Improve(offers, target, base, 3)
		if err != nil {
			return false
		}
		if improved.Imbalance(target) > base.Imbalance(target)+1e-9 {
			return false
		}
		for i, a := range improved.Assignments {
			if offers[i].ValidateAssignment(a) != nil {
				return false
			}
		}
		// Load must equal the sum of assignments.
		var sum timeseries.Series
		for _, a := range improved.Assignments {
			sum = timeseries.Add(sum, a.Series())
		}
		return sum.EquivalentZeroPadded(improved.Load)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
