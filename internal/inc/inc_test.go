package inc

import (
	"errors"
	"sync"
	"testing"

	"flexmeasures/internal/aggregate"
)

func TestTrackerPending(t *testing.T) {
	var tr Tracker
	if tr.Pending() != 0 || tr.Mutations() != 0 {
		t.Fatal("fresh tracker not zero")
	}
	tr.Note(3)
	tr.Note(0)  // no-ops must not count
	tr.Note(-1) // defensive: negative deltas ignored
	if tr.Pending() != 3 || tr.Mutations() != 3 {
		t.Fatalf("pending = %d, mutations = %d, want 3, 3", tr.Pending(), tr.Mutations())
	}
	tr.MarkScheduled()
	if tr.Pending() != 0 {
		t.Fatalf("pending after schedule = %d, want 0", tr.Pending())
	}
	tr.Note(2)
	if tr.Pending() != 2 || tr.Mutations() != 5 {
		t.Fatalf("pending = %d, mutations = %d, want 2, 5", tr.Pending(), tr.Mutations())
	}
}

func TestTrackerConcurrent(t *testing.T) {
	var tr Tracker
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Note(1)
				if i%100 == 0 {
					tr.MarkScheduled()
				}
				if tr.Pending() < 0 {
					t.Error("pending went negative")
					return
				}
			}
		}()
	}
	wg.Wait()
	if tr.Mutations() != 8000 {
		t.Fatalf("mutations = %d, want 8000", tr.Mutations())
	}
}

// TestRemapGroupErr pins that aggregation errors surfacing from the
// compacted miss slice are rewritten to global group indices — the
// same indices a full recompute would report — and that non-group
// errors pass through untouched.
func TestRemapGroupErr(t *testing.T) {
	idx := []int{4, 9}
	ge := &aggregate.GroupError{Group: 1, Size: 3, FirstID: "x", Err: errors.New("boom")}
	got := remapGroupErr(ge, idx)
	var rge *aggregate.GroupError
	if !errors.As(got, &rge) || rge.Group != 9 {
		t.Fatalf("remapped single error = %+v, want Group 9", got)
	}
	if ge.Group != 1 {
		t.Fatal("remap mutated the original error")
	}

	ges := aggregate.GroupErrors{
		{Group: 0, Err: errors.New("a")},
		{Group: 1, Err: errors.New("b")},
	}
	got = remapGroupErr(ges, idx)
	var rges aggregate.GroupErrors
	if !errors.As(got, &rges) || len(rges) != 2 || rges[0].Group != 4 || rges[1].Group != 9 {
		t.Fatalf("remapped multi error = %+v, want Groups 4, 9", got)
	}

	// An out-of-range index (defensive) and a plain error pass through.
	if e := remapGroupErr(&aggregate.GroupError{Group: 7}, idx); e.(*aggregate.GroupError).Group != 7 {
		t.Fatal("out-of-range index rewritten")
	}
	plain := errors.New("cancelled")
	if remapGroupErr(plain, idx) != plain {
		t.Fatal("plain error not passed through")
	}
}
