package grouping

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// stableSortPerm is the reference oracle of radixPerm: the stable
// comparison sort of the offer indices by (earliest start, time
// flexibility).
func stableSortPerm(ests, tfs []int) []int {
	perm := make([]int, len(ests))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool {
		a, b := perm[i], perm[j]
		if ests[a] != ests[b] {
			return ests[a] < ests[b]
		}
		return tfs[a] < tfs[b]
	})
	return perm
}

// TestRadixPermMatchesStableSort pins the grouping sort: radixPerm
// returns exactly the stable sort's permutation for every input size
// from 0 to 300, over key spans from all-equal (1) to math.MaxInt and
// the full MinInt..MaxInt range, with negative keys and both extremes
// present.
func TestRadixPermMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	spans := []int{1, 3, 300, 1 << 20, math.MaxInt}
	// keys draws n keys spanning at most span, starting at a base that
	// puts them at zero, around zero, or at the bottom of the int range.
	keys := func(n, span, base int) []int {
		ks := make([]int, n)
		for i := range ks {
			ks[i] = base + rng.Intn(span)
		}
		return ks
	}
	check := func(ests, tfs []int, what string) {
		t.Helper()
		want := stableSortPerm(ests, tfs)
		if got := radixPerm(ests, tfs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: n=%d: radixPerm\n%v\ndiffers from the stable sort\n%v", what, len(ests), got, want)
		}
	}
	for n := 0; n <= 300; n++ {
		for _, es := range spans {
			for _, ts := range spans {
				estBase := []int{0, -es / 2, math.MinInt}[rng.Intn(3)]
				tfBase := []int{0, -ts / 2, math.MinInt}[rng.Intn(3)]
				check(keys(n, es, estBase), keys(n, ts, tfBase), "bounded spans")
			}
		}
		// The full MinInt..MaxInt range, both extremes planted.
		ests, tfs := make([]int, n), make([]int, n)
		for i := range ests {
			ests[i], tfs[i] = int(rng.Uint64()), int(rng.Uint64()%4)
		}
		if n >= 2 {
			ests[rng.Intn(n)], ests[rng.Intn(n)] = math.MinInt, math.MaxInt
			tfs[rng.Intn(n)], tfs[rng.Intn(n)] = math.MaxInt, math.MinInt
		}
		check(ests, tfs, "full range")
		// All-equal keys: the identity permutation.
		for i := range ests {
			ests[i], tfs[i] = -7, math.MinInt
		}
		check(ests, tfs, "all equal")
	}
}
