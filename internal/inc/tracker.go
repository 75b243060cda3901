package inc

import "sync/atomic"

// Tracker is flexd's dirty tracker: a lock-free count of store
// mutations (adds, replaces, deletes, resets) wired into the ingest and
// reset handlers, against the high-water mark of the last schedule run.
// It does not gate correctness — the content-addressed cache catches
// every change by comparing member pointers, including replacements
// that keep their offer ID and sequence number — it makes the churn
// observable: Pending is the flexd_sched_pending_mutations gauge, the
// number of mutations the next schedule will have to absorb.
type Tracker struct {
	mutations atomic.Int64
	scheduled atomic.Int64
}

// Note records n store mutations.
func (t *Tracker) Note(n int) {
	if n > 0 {
		t.mutations.Add(int64(n))
	}
}

// MarkScheduled records that a schedule run has absorbed every mutation
// noted so far.
func (t *Tracker) MarkScheduled() {
	t.scheduled.Store(t.mutations.Load())
}

// Mutations returns the cumulative mutation count.
func (t *Tracker) Mutations() int64 { return t.mutations.Load() }

// Pending returns the mutations noted since the last schedule run
// (never negative, even when racing Note).
func (t *Tracker) Pending() int64 {
	p := t.mutations.Load() - t.scheduled.Load()
	if p < 0 {
		p = 0
	}
	return p
}
