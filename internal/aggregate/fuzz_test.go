package aggregate

import (
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"flexmeasures/internal/flexoffer"
)

// hostileGroup decodes bytes into a group of up to 8 offers that may
// be anything aggregation can be handed: nil offers, nil or empty
// profiles, negative or reversed start windows, reversed slices, and
// totals inside, on or outside the slice sums. The decoding is total —
// every byte string is a group — so the fuzzer explores groups, not a
// parser.
func hostileGroup(data []byte) []*flexoffer.FlexOffer {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(int8(b))
	}
	group := make([]*flexoffer.FlexOffer, (next()&0xff)%9)
	for i := range group {
		kind := next() & 0xff
		if kind%16 == 15 {
			continue // a nil offer
		}
		f := &flexoffer.FlexOffer{ID: strconv.Itoa(i)}
		f.EarliestStart = next() % 8
		f.LatestStart = f.EarliestStart + next()%4
		switch ns := (next() & 0xff) % 6; ns {
		case 0:
			f.Slices = []flexoffer.Slice{}
		case 5:
			// nil profile
		default:
			f.Slices = make([]flexoffer.Slice, ns)
			for j := range f.Slices {
				lo := int64(next() % 8)
				f.Slices[j] = flexoffer.Slice{Min: lo, Max: lo + int64(next()%5)}
			}
		}
		f.TotalMin = f.SumMin() + int64(next()%3)
		f.TotalMax = f.SumMax() - int64(next()%3)
		if kind%4 == 0 {
			// Totals pinned to the slice sums, the common case.
			f.TotalMin, f.TotalMax = f.SumMin(), f.SumMax()
		}
		group[i] = f
	}
	return group
}

// aggSentinels are the sentinel errors aggregation and disaggregation
// report; the copy-free path must report the same one as the oracle.
var aggSentinels = []error{
	ErrEmptyGroup, ErrNotConstituent, ErrRepairInfeasible,
	flexoffer.ErrNilOffer, flexoffer.ErrNoSlices, flexoffer.ErrNegativeTime,
	flexoffer.ErrStartOrder, flexoffer.ErrSliceOrder, flexoffer.ErrTotalOrder,
	flexoffer.ErrTotalBounds, flexoffer.ErrBadAssignment,
}

// sameError reports whether two errors are both nil, or both non-nil
// with the same message and the same sentinel under errors.Is.
func sameError(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	for _, s := range aggSentinels {
		if errors.Is(got, s) != errors.Is(want, s) {
			return false
		}
	}
	return got.Error() == want.Error()
}

// probeAssignments are the aggregate assignments the oracle comparison
// disaggregates: the minimum and maximum assignments and one mid-window
// assignment at the slice midpoints. Minimum and maximum ignore the
// totals, so they also probe the invalid-assignment error.
func probeAssignments(f *flexoffer.FlexOffer) []flexoffer.Assignment {
	mid := flexoffer.Assignment{Start: (f.EarliestStart + f.LatestStart) / 2, Values: make([]int64, len(f.Slices))}
	for i, s := range f.Slices {
		mid.Values[i] = s.Min + (s.Max-s.Min)/2
	}
	return []flexoffer.Assignment{f.MinAssignment(), f.MaxAssignment(), mid}
}

// checkAgainstOracle aggregates the group under mode (0 plain, 1 safe,
// 2 latest-aligned) on the copy-free path and the copying oracle and
// requires the same error, the same aggregate offer, Constituents equal
// to the input offers, and the same disaggregation output or error for
// every probe assignment.
func checkAgainstOracle(t *testing.T, group []*flexoffer.FlexOffer, mode uint8) {
	t.Helper()
	var ag *Aggregated
	var want *oracleAggregated
	var err, werr error
	switch mode % 3 {
	case 0:
		ag, err = Aggregate(group)
		want, werr = oracleAggregateAligned(group, AlignEarliest)
	case 1:
		ag, err = AggregateSafe(group)
		want, werr = oracleAggregateSafe(group)
	default:
		ag, err = AggregateAligned(group, AlignLatest)
		want, werr = oracleAggregateAligned(group, AlignLatest)
	}
	if !sameError(err, werr) {
		t.Fatalf("mode %d: aggregation error %v, oracle %v", mode%3, err, werr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(ag.Offer, want.Offer) {
		t.Fatalf("mode %d: aggregate %v, oracle %v", mode%3, ag.Offer, want.Offer)
	}
	if len(ag.Constituents) != len(group) {
		t.Fatalf("mode %d: %d constituents for %d offers", mode%3, len(ag.Constituents), len(group))
	}
	for i, f := range group {
		if ag.Constituents[i] != f {
			t.Fatalf("mode %d: constituent %d is not the input offer", mode%3, i)
		}
	}
	for _, a := range probeAssignments(ag.Offer) {
		parts, err := ag.Disaggregate(a)
		wparts, werr := want.Disaggregate(a)
		if !sameError(err, werr) {
			t.Fatalf("mode %d: Disaggregate(%v) error %v, oracle %v", mode%3, a, err, werr)
		}
		if !reflect.DeepEqual(parts, wparts) {
			t.Fatalf("mode %d: Disaggregate(%v) = %v, oracle %v", mode%3, a, parts, wparts)
		}
	}
}

// FuzzAggregateDisaggregate differentially fuzzes plain, safe and
// latest-aligned aggregation and disaggregation over hostile groups
// against the copying oracle (oracle_test.go).
func FuzzAggregateDisaggregate(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{3, 4, 0, 1, 2, 1, 2, 0, 0, 4, 2, 0, 1, 3, 1, 0, 1, 1, 8, 1, 2, 3, 3, 2, 1, 1}, uint8(1))
	f.Add([]byte{2, 15, 1, 0, 5, 0, 0, 1, 1, 2, 1, 3}, uint8(2))
	f.Add([]byte{4, 1, 0, 3, 4, 0, 4, 7, 0, 6, 2, 2, 1, 1, 2, 4, 3, 4, 1, 0, 2, 2, 2, 1, 0, 3, 3, 5, 1, 1, 1}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		checkAgainstOracle(t, hostileGroup(data), mode)
	})
}

// TestAggregateMatchesCopyOracle runs the differential check over
// seeded random groups: valid groups of 1–40 offers (about half with
// totals tighter than their slice sums, which exercises the repair
// passes) and hostile byte-decoded groups, in all three modes.
func TestAggregateMatchesCopyOracle(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for iter := 0; iter < 400; iter++ {
		n := 1 + r.Intn(40)
		if iter%2 == 0 {
			n = 1 + r.Intn(5)
		}
		group := slabGroup(r, n)
		for mode := uint8(0); mode < 3; mode++ {
			checkAgainstOracle(t, group, mode)
		}
		data := make([]byte, r.Intn(64))
		r.Read(data)
		for mode := uint8(0); mode < 3; mode++ {
			checkAgainstOracle(t, hostileGroup(data), mode)
		}
	}
}
