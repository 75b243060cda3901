package grid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flexmeasures/internal/flexoffer"
)

func TestAssignmentAreaPaperExample7(t *testing.T) {
	// Example 7 / Figure 4: {f3a}^3_{t=1} = ⟨2,1,3⟩ covers
	// {(1,0),(1,1),(2,0),(3,0),(3,1),(3,2)}.
	a := flexoffer.NewAssignment(1, 2, 1, 3)
	area := AssignmentArea(a)
	want := []Cell{{1, 0}, {1, 1}, {2, 0}, {3, 0}, {3, 1}, {3, 2}}
	if area.Size() != len(want) {
		t.Fatalf("area size = %d, want %d", area.Size(), len(want))
	}
	for _, c := range want {
		if !area.Contains(c) {
			t.Errorf("missing cell %+v", c)
		}
	}
	if AssignmentAreaSize(a) != 6 {
		t.Errorf("AssignmentAreaSize = %d, want 6", AssignmentAreaSize(a))
	}
}

func TestAssignmentAreaNegativeValues(t *testing.T) {
	// A production value −3 in column 2 covers (2,−3),(2,−2),(2,−1).
	a := flexoffer.NewAssignment(2, -3)
	area := AssignmentArea(a)
	want := []Cell{{2, -3}, {2, -2}, {2, -1}}
	if area.Size() != len(want) {
		t.Fatalf("area size = %d, want %d", area.Size(), len(want))
	}
	for _, c := range want {
		if !area.Contains(c) {
			t.Errorf("missing cell %+v", c)
		}
	}
	if AssignmentAreaSize(a) != 3 {
		t.Errorf("AssignmentAreaSize = %d, want 3", AssignmentAreaSize(a))
	}
}

func TestAssignmentAreaZeroValue(t *testing.T) {
	a := flexoffer.NewAssignment(0, 0, 0)
	if AssignmentArea(a).Size() != 0 || AssignmentAreaSize(a) != 0 {
		t.Error("zero values cover no cells")
	}
}

func TestUnionAreaSizePaperFigure5(t *testing.T) {
	// Figure 5: f4 = ([0,4],⟨[2,2]⟩): five assignments of two cells
	// each, jointly covering 10 cells.
	f4 := flexoffer.MustNew(0, 4, sl(2, 2))
	if got := UnionAreaSize(f4); got != 10 {
		t.Errorf("UnionAreaSize(f4) = %d, want 10", got)
	}
}

func TestUnionAreaSizePaperFigure6(t *testing.T) {
	// Figure 6: f5 = ([0,4],⟨[1,1],[2,2]⟩). The five assignments of
	// three cells each jointly cover 11 cells (the paper prints the
	// total as 10 in Example 9 but its final value 8 = 11 − cmin(3)
	// confirms 11; see EXPERIMENTS.md).
	f5 := flexoffer.MustNew(0, 4, sl(1, 1), sl(2, 2))
	if got := UnionAreaSize(f5); got != 11 {
		t.Errorf("UnionAreaSize(f5) = %d, want 11", got)
	}
}

func TestUnionAreaSizePaperFigure7(t *testing.T) {
	// Figure 7 / Example 15: f6 = ([0,2],⟨[−1,2],[−4,−1],[−3,1]⟩)
	// jointly covers 24 cells.
	f6 := flexoffer.MustNew(0, 2,
		sl(-1, 2), sl(-4, -1), sl(-3, 1))
	if got := UnionAreaSize(f6); got != 24 {
		t.Errorf("UnionAreaSize(f6) = %d, want 24", got)
	}
}

func TestColumnBounds(t *testing.T) {
	f6 := flexoffer.MustNew(0, 2,
		sl(-1, 2), sl(-4, -1), sl(-3, 1))
	cases := []struct {
		t      int
		lo, hi int64
		ok     bool
	}{
		{0, -1, 2, true},  // only slice 1
		{1, -4, 2, true},  // slices 1,2
		{2, -4, 2, true},  // slices 1,2,3
		{3, -4, 1, true},  // slices 2,3
		{4, -3, 1, true},  // only slice 3
		{5, 0, 0, false},  // beyond latest end
		{-1, 0, 0, false}, // before earliest start
	}
	for _, c := range cases {
		lo, hi, ok := ColumnBounds(f6, c.t)
		if ok != c.ok || lo != c.lo || hi != c.hi {
			t.Errorf("ColumnBounds(t=%d) = (%d,%d,%v), want (%d,%d,%v)",
				c.t, lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}
}

func TestUnionAreaMatchesSize(t *testing.T) {
	f6 := flexoffer.MustNew(0, 2,
		sl(-1, 2), sl(-4, -1), sl(-3, 1))
	if got := int64(UnionArea(f6).Size()); got != UnionAreaSize(f6) {
		t.Errorf("UnionArea size %d != UnionAreaSize %d", got, UnionAreaSize(f6))
	}
}

func TestUnionAreaByEnumerationMatchesSweep(t *testing.T) {
	offers := []*flexoffer.FlexOffer{
		flexoffer.MustNew(0, 4, sl(2, 2)),
		flexoffer.MustNew(0, 4, sl(1, 1), sl(2, 2)),
		flexoffer.MustNew(0, 2, sl(-1, 2), sl(-4, -1), sl(-3, 1)),
		flexoffer.MustNew(1, 6, sl(1, 3), sl(2, 4), sl(0, 5), sl(0, 3)),
	}
	for _, f := range offers {
		enum, err := UnionAreaByEnumeration(f, 100000)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		sweep := UnionArea(f)
		if enum.Size() != sweep.Size() {
			t.Errorf("%v: enumeration %d cells, sweep %d", f, enum.Size(), sweep.Size())
		}
		for c := range enum {
			if !sweep.Contains(c) {
				t.Errorf("%v: sweep missing cell %+v", f, c)
			}
		}
	}
}

func TestUnionAreaByEnumerationLimit(t *testing.T) {
	f := flexoffer.MustNew(0, 4, sl(0, 9), sl(0, 9))
	if _, err := UnionAreaByEnumeration(f, 10); err == nil {
		t.Fatal("limit must be enforced")
	}
}

func TestCellSetOps(t *testing.T) {
	a := NewCellSet()
	a.Add(Cell{1, 2})
	a.Add(Cell{0, -1})
	b := NewCellSet()
	b.Add(Cell{1, 2})
	b.Add(Cell{3, 0})
	a.Union(b)
	if a.Size() != 3 {
		t.Fatalf("union size = %d, want 3", a.Size())
	}
	cells := a.Cells()
	want := []Cell{{0, -1}, {1, 2}, {3, 0}}
	for i, c := range want {
		if cells[i] != c {
			t.Fatalf("Cells() = %v, want %v", cells, want)
		}
	}
}

func randomOffer(r *rand.Rand) *flexoffer.FlexOffer {
	n := 1 + r.Intn(3)
	slices := make([]flexoffer.Slice, n)
	for i := range slices {
		lo := int64(r.Intn(7) - 3)
		slices[i] = flexoffer.Slice{Min: lo, Max: lo + int64(r.Intn(3))}
	}
	es := r.Intn(3)
	return flexoffer.MustNew(es, es+r.Intn(3), slices...)
}

func TestPropertySweepMatchesEnumeration(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randomOffer(r)
		enum, err := UnionAreaByEnumeration(f, 200000)
		if err != nil {
			return true // skip over-large spaces
		}
		return int64(enum.Size()) == UnionAreaSize(f)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPropertyUnionDominatesEveryAssignment(t *testing.T) {
	// The union area must contain the area of any single assignment.
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randomOffer(r)
		union := UnionArea(f)
		a, err := f.EarliestAssignment()
		if err != nil {
			return false
		}
		for c := range AssignmentArea(a) {
			if !union.Contains(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAreaSizeNonNegativeAndBounded(t *testing.T) {
	// 0 <= union <= columns × (maxAmax − minAmin).
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randomOffer(r)
		size := UnionAreaSize(f)
		if size < 0 {
			return false
		}
		var maxHi, minLo int64
		for _, s := range f.Slices {
			if s.Max > maxHi {
				maxHi = s.Max
			}
			if s.Min < minLo {
				minLo = s.Min
			}
		}
		cols := int64(f.LatestEnd() - f.EarliestStart)
		return size <= cols*(maxHi-minLo)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// sl is shorthand for a slice literal in test fixtures.
func sl(min, max int64) flexoffer.Slice { return flexoffer.Slice{Min: min, Max: max} }

// TestFeasibleBand checks the band sweep against hand-computed bounds:
// a consumption offer with time flexibility, plus a production offer,
// over a window that clips both ends.
func TestFeasibleBand(t *testing.T) {
	// Consumption: two slices max 3 then 5, start in {1, 2}.
	cons, err := flexoffer.New(1, 2, flexoffer.Slice{Min: 1, Max: 3}, flexoffer.Slice{Min: 2, Max: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Production: one slice [-4, 0] pinned at t=2.
	prod, err := flexoffer.New(2, 2, flexoffer.Slice{Min: -4, Max: 0})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := FeasibleBand([]*flexoffer.FlexOffer{cons, prod}, 0, 5)
	wantHi := []int64{0, 3, 5, 5, 0} // t=1: s0 max; t=2: max(s0,s1)=5; t=3: s1 max
	wantLo := []int64{0, 0, -4, 0, 0}
	for tcol := range wantHi {
		if hi[tcol] != wantHi[tcol] || lo[tcol] != wantLo[tcol] {
			t.Errorf("column %d: band [%d, %d], want [%d, %d]", tcol, lo[tcol], hi[tcol], wantLo[tcol], wantHi[tcol])
		}
	}
	// Clipped window: only column 2 visible.
	lo, hi = FeasibleBand([]*flexoffer.FlexOffer{cons, prod}, 2, 3)
	if len(hi) != 1 || hi[0] != 5 || lo[0] != -4 {
		t.Errorf("clipped band = [%d, %d], want [-4, 5]", lo[0], hi[0])
	}
	// Degenerate windows.
	if lo, hi := FeasibleBand(nil, 3, 1); len(lo) != 0 || len(hi) != 0 {
		t.Errorf("inverted window band has length %d, %d; want 0, 0", len(lo), len(hi))
	}
}

// TestFeasibleBandBracketsAssignments property-checks soundness: every
// enumerated assignment's per-column load lies within the band.
func TestFeasibleBandBracketsAssignments(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		f := randomOffer(r)
		lo, hi := FeasibleBand([]*flexoffer.FlexOffer{f}, f.EarliestStart, f.LatestEnd())
		err := f.EnumerateAssignments(20000, func(a flexoffer.Assignment) bool {
			for i, v := range a.Values {
				col := a.Start + i - f.EarliestStart
				if v > hi[col] || v < lo[col] {
					t.Fatalf("assignment value %d at column %d outside band [%d, %d] for %v", v, col, lo[col], hi[col], f)
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// sweepUnionAreaSize is the per-column sweep: ColumnBounds at every
// column t ∈ [tes, LatestEnd), O((tf+s)·min(tf+1, s)) per offer. It is
// the oracle for UnionAreaSize's run decomposition.
func sweepUnionAreaSize(f *flexoffer.FlexOffer) int64 {
	var total int64
	for t := f.EarliestStart; t < f.LatestEnd(); t++ {
		lo, hi, ok := ColumnBounds(f, t)
		if !ok {
			continue
		}
		if hi > 0 {
			total += hi
		}
		if lo < 0 {
			total -= lo
		}
	}
	return total
}

// kernelOffer builds an offer with n slices from profile: slice i's
// bounds are bytes 2i and 2i+1 (cycling; zero for an empty profile),
// read as int8 and multiplied by scale with int64 wrap-around, so a
// large scale reaches the int64 extremes.
func kernelOffer(tes, tf int, n uint8, scale int64, profile []byte) *flexoffer.FlexOffer {
	f := &flexoffer.FlexOffer{EarliestStart: tes, LatestStart: tes + tf}
	for i := 0; i < int(n); i++ {
		var a, b int64
		if len(profile) > 0 {
			a = int64(int8(profile[(2*i)%len(profile)])) * scale
			b = int64(int8(profile[(2*i+1)%len(profile)])) * scale
		}
		f.Slices = append(f.Slices, flexoffer.Slice{Min: min(a, b), Max: max(a, b)})
	}
	return f
}

// checkKernel compares UnionAreaSize with the per-column sweep, the
// FeasibleBand of f alone with ColumnBounds over a window around the
// offer and one clipped inside it, and, when the middle is a plateau,
// UnionAreaSize after widening tf by 2^40 with its closed form.
func checkKernel(t *testing.T, f *flexoffer.FlexOffer) {
	t.Helper()
	if got, want := UnionAreaSize(f), sweepUnionAreaSize(f); got != want {
		t.Fatalf("%+v: UnionAreaSize = %d, sweep = %d", f, got, want)
	}
	s, tf := f.NumSlices(), f.TimeFlexibility()
	mid := f.EarliestStart + tf/2
	for _, w := range [][2]int{{f.EarliestStart - 1, f.LatestEnd() + 1}, {mid, mid + s/2 + 1}} {
		lo, hi := FeasibleBand([]*flexoffer.FlexOffer{f}, w[0], w[1])
		for c := w[0]; c < w[1]; c++ {
			l, h, _ := ColumnBounds(f, c)
			if hi[c-w[0]] != max(h, 0) || lo[c-w[0]] != min(l, 0) {
				t.Fatalf("%+v: band over %v at column %d = [%d, %d], want [%d, %d]",
					f, w, c, lo[c-w[0]], hi[c-w[0]], min(l, 0), max(h, 0))
			}
		}
	}
	if s == 0 || tf < s-1 {
		return
	}
	// Every column the widening adds holds the whole profile.
	var whole int64
	lo, hi, _ := ColumnBounds(f, f.EarliestStart+s-1)
	if hi > 0 {
		whole += hi
	}
	if lo < 0 {
		whole -= lo
	}
	const wide = 1 << 40
	g := f.Clone()
	g.LatestStart += wide
	if got, want := UnionAreaSize(g), sweepUnionAreaSize(f)+wide*whole; got != want {
		t.Fatalf("%+v widened by 2^40: UnionAreaSize = %d, closed form %d", f, got, want)
	}
}

// TestUnionAreaSizeMatchesSweep checks the run decomposition against
// the per-column sweep on every shape: each time flexibility from −2
// to past the profile, profiles of 1–70 slices (70 with tf ∈ [32, 37]
// takes the monotonic-deque window path), mixed-sign bounds.
func TestUnionAreaSizeMatchesSweep(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for _, s := range []uint8{1, 2, 3, 5, 9, 70} {
		for tf := -2; tf <= int(s)+2; tf++ {
			profile := make([]byte, 2*int(s))
			r.Read(profile)
			checkKernel(t, kernelOffer(r.Intn(5), tf, s, 1, profile))
		}
	}
}

// TestUnionAreaSizeWideTimeFlexibility pins the hostile input: an offer
// with tf = 2^40 takes O(s), not 2^40 column visits, and its size is
// the ramps plus 2^40−s+2 plateau columns of the whole profile's band.
func TestUnionAreaSizeWideTimeFlexibility(t *testing.T) {
	f := flexoffer.MustNew(3, 3+1<<40, sl(-1, 2), sl(-4, -1), sl(-3, 1))
	// Ramp-up: slice 1, then 1–2; plateau: 1–3; ramp-down: 3, then 2–3.
	want := int64(3) + 6 + (1<<40-1)*6 + 4 + 5
	if got := UnionAreaSize(f); got != want {
		t.Fatalf("UnionAreaSize = %d, want %d", got, want)
	}
}

// FuzzUnionAreaSize differentially fuzzes the union-area kernel and the
// band sweep built on the same decomposition against the per-column
// sweep (checkKernel): start times and time flexibilities of either
// sign, up to 255 slices, bounds scaled to the int64 extremes.
func FuzzUnionAreaSize(f *testing.F) {
	f.Fuzz(func(t *testing.T, tes, tf int, n uint8, scale int64, profile []byte) {
		// Keep the oracle's O((tf+s)·s) sweep cheap.
		checkKernel(t, kernelOffer(tes%(1<<20), tf%(1<<10), n, scale, profile))
	})
}
