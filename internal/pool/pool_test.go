package pool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// covered returns a slice of per-index hit counts after running fn-free
// ForEach/Run over n indices.
func hitAll(t *testing.T, n int, run func(fn func(int))) {
	t.Helper()
	hits := make([]int32, n)
	run(func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d processed %d times, want exactly once", i, h)
		}
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	p := New(4)
	defer p.Close()
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, workers := range []int{0, 1, 2, 4, 9} {
			for _, batch := range []int{0, 1, 3, 1000} {
				hitAll(t, n, func(fn func(int)) { p.ForEach(n, workers, batch, fn) })
			}
		}
	}
}

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, workers := range []int{0, 1, 2, 4, 9} {
			hitAll(t, n, func(fn func(int)) { Run(n, workers, 0, fn) })
		}
	}
}

func TestNilPoolRunsSerially(t *testing.T) {
	var p *Pool
	if p.Workers() != 0 {
		t.Errorf("nil pool Workers() = %d, want 0", p.Workers())
	}
	p.Close() // must not panic
	hitAll(t, 100, func(fn func(int)) { p.ForEach(100, 0, 0, fn) })
}

func TestForEachAfterCloseStillCompletes(t *testing.T) {
	p := New(3)
	p.Close()
	p.Close() // idempotent
	hitAll(t, 50, func(fn func(int)) { p.ForEach(50, 0, 0, fn) })
}

// TestConcurrentSubmitters hammers one pool from many goroutines; every
// call must cover exactly its own index space. Run under -race this is
// the pool's core safety property.
func TestConcurrentSubmitters(t *testing.T) {
	p := New(4)
	defer p.Close()
	const calls = 16
	var wg sync.WaitGroup
	for c := 0; c < calls; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := 50 + c*7
			hits := make([]int32, n)
			p.ForEach(n, 0, 0, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Errorf("call %d: index %d processed %d times", c, i, h)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestCloseRacingForEach closes the pool while submissions are in
// flight: every ForEach must still complete every index (helpers are
// best-effort; the caller drains whatever they drop).
func TestCloseRacingForEach(t *testing.T) {
	p := New(4)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				hits := make([]int32, 64)
				p.ForEach(64, 0, 1, func(i int) { atomic.AddInt32(&hits[i], 1) })
				for i, h := range hits {
					if h != 1 {
						t.Errorf("index %d processed %d times after racing Close", i, h)
						return
					}
				}
			}
		}()
	}
	p.Close()
	wg.Wait()
}

// TestForEachFailsFastWhenPoolBusy pins the enlistment contract: when
// every worker is occupied by unrelated long-running work, a new
// ForEach must not park tasks behind it — the caller drains its own
// cursor and returns without waiting for the busy workers.
func TestForEachFailsFastWhenPoolBusy(t *testing.T) {
	p := New(2)
	defer p.Close()
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(2)
	for i := 0; i < 2; i++ {
		p.tasks <- func() {
			started.Done()
			<-release
		}
	}
	started.Wait()
	defer close(release)
	done := make(chan struct{})
	go func() {
		defer close(done)
		hits := make([]int32, 100)
		p.ForEach(100, 0, 1, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Errorf("index %d processed %d times on a saturated pool", i, h)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach stalled behind a saturated pool instead of completing caller-side")
	}
}

func TestWorkersDefaultsToCPUs(t *testing.T) {
	p := New(0)
	defer p.Close()
	if p.Workers() < 1 {
		t.Errorf("Workers() = %d, want ≥ 1", p.Workers())
	}
}

func BenchmarkForEachPersistent(b *testing.B) {
	p := New(0)
	defer p.Close()
	var sink atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForEach(256, 0, 0, func(i int) { sink.Add(int64(i)) })
	}
}

func BenchmarkForEachSpinUp(b *testing.B) {
	var sink atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(256, 0, 0, func(i int) { sink.Add(int64(i)) })
	}
}

// TestFreeKeepsAtMostCapacity pins the free list's bound: Get reuses
// kept values in any order, makes new ones when none is kept, and Put
// beyond the capacity drops the value.
func TestFreeKeepsAtMostCapacity(t *testing.T) {
	made := 0
	f := NewFree(2, func() *int { made++; return new(int) })
	a, b, c := f.Get(), f.Get(), f.Get()
	if made != 3 {
		t.Fatalf("made %d values for 3 Gets on an empty list, want 3", made)
	}
	f.Put(a)
	f.Put(b)
	f.Put(c) // dropped: the list keeps two
	for i := 0; i < 2; i++ {
		if v := f.Get(); v != a && v != b {
			t.Fatalf("Get %d returned a value that was not kept", i)
		}
	}
	if f.Get(); made != 4 {
		t.Fatalf("made %d values, want 4: the third Put must have been dropped", made)
	}
}
