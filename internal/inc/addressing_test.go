package inc

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"flexmeasures/internal/aggregate"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/timeseries"
)

// stubAggregate "aggregates" a group into an Aggregated whose offer is
// the group's first member — enough for the walk to place it — and
// reports an empty group as aggregation does, with ErrEmptyGroup under
// the group's index. Its allocations do not depend on group sizes.
func stubAggregate(_ context.Context, gs [][]*flexoffer.FlexOffer) ([]*aggregate.Aggregated, error) {
	out := make([]*aggregate.Aggregated, len(gs))
	for i, g := range gs {
		if len(g) == 0 {
			return nil, &aggregate.GroupError{Group: i, Err: aggregate.ErrEmptyGroup}
		}
		out[i] = &aggregate.Aggregated{Offer: g[0], Constituents: g}
	}
	return out, nil
}

// stubDisaggregate hands every aggregate its own assignment back as
// its single part.
func stubDisaggregate(_ context.Context, _ []*aggregate.Aggregated, asgs []flexoffer.Assignment) ([][]flexoffer.Assignment, error) {
	out := make([][]flexoffer.Assignment, len(asgs))
	for i, a := range asgs {
		out[i] = []flexoffer.Assignment{a}
	}
	return out, nil
}

// stubGroups builds count groups of size members each; group k's offers
// all start at 3k with two slots of time flexibility and one slice.
func stubGroups(t testing.TB, count, size int) [][]*flexoffer.FlexOffer {
	t.Helper()
	groups := make([][]*flexoffer.FlexOffer, count)
	for k := range groups {
		for m := 0; m < size; m++ {
			f, err := flexoffer.New(3*k, 3*k+2, flexoffer.Slice{Min: 1, Max: 2})
			if err != nil {
				t.Fatal(err)
			}
			f.ID = fmt.Sprintf("g%d-m%d", k, m)
			groups[k] = append(groups[k], f)
		}
	}
	return groups
}

var stubTarget = timeseries.Constant(0, 64, 1)

// runStub runs s over groups with the stub stages and returns the
// cumulative stats afterwards.
func runStub(t testing.TB, s *State, groups [][]*flexoffer.FlexOffer) Stats {
	t.Helper()
	if _, err := s.Run(context.Background(), groups, stubTarget, Config{Threshold: 1}, stubAggregate, stubDisaggregate); err != nil {
		t.Fatal(err)
	}
	return s.Stats()
}

// TestRunAddressing pins how Run finds a group's previous entry: by its
// first member pointer, verified by every member pointer in order, and
// only at or past the last hit's position.
func TestRunAddressing(t *testing.T) {
	t.Run("identical re-run hits everything", func(t *testing.T) {
		s := NewState()
		groups := stubGroups(t, 5, 3)
		runStub(t, s, groups)
		st := runStub(t, s, groups)
		if st.Hits != 5 || st.Misses != 5 || st.LastDirty != 0 || st.LastReused != 5 {
			t.Fatalf("identical re-run: %+v, want 5 hits, no dirty, 5 reused", st)
		}
	})
	t.Run("replaced last member misses", func(t *testing.T) {
		s := NewState()
		groups := stubGroups(t, 3, 3)
		runStub(t, s, groups)
		changed := append([][]*flexoffer.FlexOffer(nil), groups...)
		g := append([]*flexoffer.FlexOffer(nil), groups[1]...)
		c := *g[2]
		g[2] = &c
		changed[1] = g
		st := runStub(t, s, changed)
		if st.Hits != 2 || st.LastDirty != 1 {
			t.Fatalf("last member replaced: %+v, want 2 hits and 1 dirty group", st)
		}
	})
	t.Run("swapped groups miss once", func(t *testing.T) {
		s := NewState()
		groups := stubGroups(t, 2, 2)
		runStub(t, s, groups)
		st := runStub(t, s, [][]*flexoffer.FlexOffer{groups[1], groups[0]})
		if st.Hits != 1 || st.LastDirty != 1 {
			t.Fatalf("swapped order: %+v, want 1 hit and 1 dirty group", st)
		}
	})
	t.Run("shared first member hits at most once", func(t *testing.T) {
		base := stubGroups(t, 1, 3)[0]
		a, b := base[:2:2], []*flexoffer.FlexOffer{base[0], base[2]}
		for _, order := range [][][]*flexoffer.FlexOffer{{a, b}, {b, a}} {
			s := NewState()
			runStub(t, s, [][]*flexoffer.FlexOffer{a, b})
			st := runStub(t, s, order)
			if st.Hits != 1 || st.LastDirty != 1 {
				t.Fatalf("shared first member: %+v, want 1 hit and 1 dirty group", st)
			}
		}
	})
	t.Run("empty group is an error", func(t *testing.T) {
		s := NewState()
		groups := stubGroups(t, 2, 2)
		runStub(t, s, groups)
		_, err := s.Run(context.Background(), [][]*flexoffer.FlexOffer{groups[0], nil, groups[1]},
			stubTarget, Config{}, stubAggregate, stubDisaggregate)
		var ge *aggregate.GroupError
		if !errors.As(err, &ge) || ge.Group != 1 || !errors.Is(err, aggregate.ErrEmptyGroup) {
			t.Fatalf("empty group: err = %v, want ErrEmptyGroup at group 1", err)
		}
		// The failed run left the cache as the last success built it.
		if st := runStub(t, s, groups); st.LastDirty != 0 {
			t.Fatalf("re-run after failure: %+v, want no dirty group", st)
		}
	})
}

// TestRunAllocsIndependentOfGroupSize pins that Run's own bookkeeping
// is per group, not per offer: with stub stages and a fixed group
// count, a replaying re-run and an all-miss run each allocate the same
// for 1-, 16- and 64-member groups.
func TestRunAllocsIndependentOfGroupSize(t *testing.T) {
	const count = 16
	measure := func(size int) (replay, miss float64) {
		s := NewState()
		a, b := stubGroups(t, count, size), stubGroups(t, count, size)
		runStub(t, s, a)
		replay = testing.AllocsPerRun(20, func() { runStub(t, s, a) })
		flip := false
		miss = testing.AllocsPerRun(20, func() {
			flip = !flip
			if flip {
				runStub(t, s, b)
			} else {
				runStub(t, s, a)
			}
		})
		return replay, miss
	}
	replay1, miss1 := measure(1)
	for _, size := range []int{16, 64} {
		replay, miss := measure(size)
		if replay != replay1 || miss != miss1 {
			t.Errorf("size %d: %.0f replay / %.0f miss allocs per run, size 1: %.0f / %.0f",
				size, replay, miss, replay1, miss1)
		}
	}
}
