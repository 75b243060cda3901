// Package grid implements the two-dimensional time×energy grid of
// Definition 9 in Valsomatzis et al. (EDBT/ICDT Workshops 2015) and the
// area computations underlying the absolute and relative area-based
// flexibility measures (Definitions 10 and 11).
//
// The grid is G = N0 × Z; a cell is identified by its lower-left corner
// (t, e). The area of an assignment is the set of cells between its
// energy values and the time axis (hatched cells in the paper's
// Figure 4): a positive value v in column t covers cells (t,0)…(t,v−1);
// a negative value v covers cells (t,v)…(t,−1).
//
// Two implementations are provided. UnionAreaSize computes the size of
// the union of the areas of *all* assignments of a flex-offer with a
// per-column sweep in O(columns × slices) time, independent of the
// magnitudes of the energy values. CellSet-based functions materialise
// cell sets explicitly; they cost O(area) and exist chiefly so tests can
// cross-check the sweep against the literal definition.
package grid

import (
	"sort"

	"flexmeasures/internal/flexoffer"
)

// Cell identifies one grid cell by its lower-left corner coordinates.
type Cell struct {
	// T is the time coordinate (column).
	T int
	// E is the energy coordinate (row).
	E int64
}

// CellSet is a set of grid cells.
type CellSet map[Cell]struct{}

// NewCellSet returns an empty cell set.
func NewCellSet() CellSet { return make(CellSet) }

// Add inserts a cell.
func (cs CellSet) Add(c Cell) { cs[c] = struct{}{} }

// Contains reports membership.
func (cs CellSet) Contains(c Cell) bool {
	_, ok := cs[c]
	return ok
}

// Size returns the number of cells in the set.
func (cs CellSet) Size() int { return len(cs) }

// Union merges other into cs and returns cs.
func (cs CellSet) Union(other CellSet) CellSet {
	for c := range other {
		cs[c] = struct{}{}
	}
	return cs
}

// Cells returns the cells sorted by (T, E), for deterministic output.
func (cs CellSet) Cells() []Cell {
	out := make([]Cell, 0, len(cs))
	for c := range cs {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return out[i].E < out[j].E
	})
	return out
}

// columnCells adds the cells between value v and the time axis in column
// t: Definition 9's "cells that fall between the energy values and the
// X-axis".
func columnCells(cs CellSet, t int, v int64) {
	switch {
	case v > 0:
		for e := int64(0); e < v; e++ {
			cs.Add(Cell{T: t, E: e})
		}
	case v < 0:
		for e := v; e < 0; e++ {
			cs.Add(Cell{T: t, E: e})
		}
	}
}

// AssignmentArea returns the area of a single assignment (Definition 9)
// as an explicit cell set. The paper's Example 7: the assignment
// ⟨2,1,3⟩ at t=1 covers {(1,0),(1,1),(2,0),(3,0),(3,1),(3,2)}.
func AssignmentArea(a flexoffer.Assignment) CellSet {
	cs := NewCellSet()
	for i, v := range a.Values {
		columnCells(cs, a.Start+i, v)
	}
	return cs
}

// AssignmentAreaSize returns |area(fa)| without materialising the set.
func AssignmentAreaSize(a flexoffer.Assignment) int64 {
	var n int64
	for _, v := range a.Values {
		if v > 0 {
			n += v
		} else {
			n -= v
		}
	}
	return n
}

// ColumnBounds reports, for one absolute time column t, the extreme
// energy values any assignment of f can place there: hi is the maximum
// over the slices that can occupy t of amax, and lo the minimum of amin.
// ok is false when no slice of f can occupy column t.
func ColumnBounds(f *flexoffer.FlexOffer, t int) (lo, hi int64, ok bool) {
	// Slice i (0-based) occupies column t when the offer starts at
	// t−i, which must lie within [tes, tls].
	iMin := t - f.LatestStart
	if iMin < 0 {
		iMin = 0
	}
	iMax := t - f.EarliestStart
	if iMax > f.NumSlices()-1 {
		iMax = f.NumSlices() - 1
	}
	if iMin > iMax {
		return 0, 0, false
	}
	lo, hi = f.Slices[iMin].Min, f.Slices[iMin].Max
	for i := iMin + 1; i <= iMax; i++ {
		if f.Slices[i].Min < lo {
			lo = f.Slices[i].Min
		}
		if f.Slices[i].Max > hi {
			hi = f.Slices[i].Max
		}
	}
	return lo, hi, true
}

// UnionAreaSize returns |⋃ area(fa)| over all assignments fa ∈ L(f): the
// size of the total area jointly covered by every possible assignment
// (the first operand of Definition 10).
//
// Because every assignment's area is anchored at the time axis, the
// covered cells in a column t form the contiguous bands
// [0, max amax) above the axis and [min amin, 0) below it, where the
// extremes range over the slices that can occupy t (ColumnBounds). The
// size sums those bands over the column runs of eachColumnRun, inlined
// here because typical offers hold a handful of slices and a call per
// column would cost as much as the sum. It is O(s) for s slices
// whatever the time flexibility: the plateau of columns every slice
// can reach is one product, and int64 sums wrap around exactly as
// column-by-column addition would.
//
// Like Definition 8, the joint area follows the paper in ignoring the
// total energy constraints when sweeping slice ranges (the paper's f4/f5
// examples pin totals to a constant, which leaves slice ranges as the
// sole source of area).
func UnionAreaSize(f *flexoffer.FlexOffer) int64 {
	sl := f.Slices
	s, tf := len(sl), f.LatestStart-f.EarliestStart
	if s == 0 || tf < 0 || f.LatestEnd() <= f.EarliestStart {
		return 0
	}
	var total int64
	add := func(n int, lo, hi int64) {
		if hi > 0 {
			total += int64(n) * hi
		}
		if lo < 0 {
			total -= int64(n) * lo
		}
	}
	m, mm := min(tf, s-1), max(tf, s-1)
	lo, hi := sl[0].Min, sl[0].Max
	for u := 0; u < m; u++ {
		lo, hi = min(lo, sl[u].Min), max(hi, sl[u].Max)
		add(1, lo, hi)
	}
	switch w := tf + 1; {
	case tf >= s-1:
		for _, x := range sl[m:] {
			lo, hi = min(lo, x.Min), max(hi, x.Max)
		}
		add(tf-s+2, lo, hi)
	case w > narrowWindow && s-tf > narrowWindow:
		eachWindow(sl, w, m, mm+1, func(_, n int, lo, hi int64) { add(n, lo, hi) })
	default:
		for u := m; u <= mm; u++ {
			lo, hi := sl[u-tf].Min, sl[u-tf].Max
			for _, x := range sl[u-tf+1 : u+1] {
				lo, hi = min(lo, x.Min), max(hi, x.Max)
			}
			add(1, lo, hi)
		}
	}
	lo, hi = sl[s-1].Min, sl[s-1].Max
	for u := tf + s - 1; u > mm; u-- {
		lo, hi = min(lo, sl[u-tf].Min), max(hi, sl[u-tf].Max)
		add(1, lo, hi)
	}
	return total
}

// eachColumnRun calls visit(u, n, lo, hi) for every run of columns of
// f whose offsets u…u+n−1 from f.EarliestStart lie in [from, to): each
// of those columns has ColumnBounds (lo, hi). Columns no slice can
// occupy are never visited. Runs arrive in no particular order.
//
// Column u can hold the slices [max(0, u−tf), min(s−1, u)] of an offer
// with s slices and time flexibility tf, so the columns split in three:
//   - a ramp-up, u < min(tf, s−1), bounded by the prefix extremes of
//     slices 0…u, visited one column at a time;
//   - a middle, min(tf, s−1) ≤ u ≤ max(tf, s−1): when tf ≥ s−1, a
//     plateau of tf−s+2 columns that all hold every slice, visited as
//     one run; otherwise the s−tf windows of tf+1 consecutive slices;
//   - a ramp-down, u > max(tf, s−1), bounded by the suffix extremes of
//     slices u−tf…s−1.
//
// The cost is O(s) plus one visit per ramp or window column, with no
// term in tf beyond the clipped plateau.
func eachColumnRun(f *flexoffer.FlexOffer, from, to int, visit func(u, n int, lo, hi int64)) {
	sl := f.Slices
	s, tf := len(sl), f.LatestStart-f.EarliestStart
	// The per-column sweep visits t ∈ [tes, LatestEnd); the guard also
	// keeps an overflowing LatestEnd from opening a column range.
	if s == 0 || tf < 0 || f.LatestEnd() <= f.EarliestStart {
		return
	}
	from = max(from, 0)
	to = min(to, tf+s)
	if from >= to {
		return
	}
	m, mm := min(tf, s-1), max(tf, s-1)
	// Ramp-up, extended through slice s−1 when the middle is a plateau.
	lo, hi := sl[0].Min, sl[0].Max
	for u := 0; u < m; u++ {
		lo, hi = min(lo, sl[u].Min), max(hi, sl[u].Max)
		if u >= from && u < to {
			visit(u, 1, lo, hi)
		}
	}
	if a, b := max(m, from), min(mm+1, to); a < b {
		if tf >= s-1 {
			for _, x := range sl[m:] {
				lo, hi = min(lo, x.Min), max(hi, x.Max)
			}
			visit(a, b-a, lo, hi)
		} else {
			eachWindow(sl, tf+1, a, b, visit)
		}
	}
	// Ramp-down: column u holds slices u−tf…s−1, so walk u downwards
	// from the last column and extend the suffix one slice at a time.
	lo, hi = sl[s-1].Min, sl[s-1].Max
	for u := tf + s - 1; u > mm; u-- {
		lo, hi = min(lo, sl[u-tf].Min), max(hi, sl[u-tf].Max)
		if u >= from && u < to {
			visit(u, 1, lo, hi)
		}
	}
}

// FeasibleBand sweeps ColumnBounds over a set of offers: for every
// column t in [from, to) it returns the extreme total loads any
// combination of assignments could place there — hi[t−from] sums each
// offer's maximum positive contribution, lo[t−from] each offer's
// minimum negative contribution (offers that cannot occupy t contribute
// nothing). The band brackets every schedule the set admits, so a grid
// operator can check a zone's worst-case import (hi) and export (lo)
// against the feeder capacity before any dispatch is chosen; the
// simulation harness uses it for zone-capacity stress scenarios. Each
// offer's columns come run by run from the same decomposition as
// UnionAreaSize, clipped to the window, so an offer costs O(s) plus
// its columns inside [from, to).
//
// Like UnionAreaSize, the sweep honours slice constraints only (total
// energy constraints could rule out some extremes, so the band is a
// sound over-approximation: no feasible schedule exceeds it).
func FeasibleBand(offers []*flexoffer.FlexOffer, from, to int) (lo, hi []int64) {
	if to < from {
		to = from
	}
	lo = make([]int64, to-from)
	hi = make([]int64, to-from)
	for _, f := range offers {
		// Column offset u of f is absolute column tes+u, band index
		// tes+u−from.
		off := f.EarliestStart - from
		eachColumnRun(f, -off, to-from-off, func(u, n int, l, h int64) {
			for c := u + off; c < u+off+n; c++ {
				if h > 0 {
					hi[c] += h
				}
				if l < 0 {
					lo[c] += l
				}
			}
		})
	}
	return lo, hi
}

// narrowWindow is the widest window, and the fewest windows, that
// eachWindow scans slice by slice: below it a rescan beats the deque's
// bookkeeping and allocation (typical windows hold a few slices).
const narrowWindow = 32

// eachWindow visits the bounds of columns u ∈ [a, b), column u holding
// the w consecutive slices u−w+1…u. Narrow windows, or few of them, are
// rescanned; otherwise a monotonic deque per extreme keeps the sweep
// O(s), so an offer with many slices and a wide time flexibility is not
// quadratic.
func eachWindow(sl []flexoffer.Slice, w, a, b int, visit func(u, n int, lo, hi int64)) {
	if w <= narrowWindow || b-a <= narrowWindow {
		for u := a; u < b; u++ {
			lo, hi := sl[u-w+1].Min, sl[u-w+1].Max
			for _, x := range sl[u-w+2 : u+1] {
				lo, hi = min(lo, x.Min), max(hi, x.Max)
			}
			visit(u, 1, lo, hi)
		}
		return
	}
	// maxQ and minQ hold slice indices whose Max (Min) values decrease
	// (increase) from head to tail; the head is the window's extreme.
	maxQ, minQ := make([]int, 0, b-a+w), make([]int, 0, b-a+w)
	mh, nh := 0, 0
	for i := a - w + 1; i < b; i++ {
		for len(maxQ) > mh && sl[maxQ[len(maxQ)-1]].Max <= sl[i].Max {
			maxQ = maxQ[:len(maxQ)-1]
		}
		maxQ = append(maxQ, i)
		for len(minQ) > nh && sl[minQ[len(minQ)-1]].Min >= sl[i].Min {
			minQ = minQ[:len(minQ)-1]
		}
		minQ = append(minQ, i)
		if i < a {
			continue
		}
		for maxQ[mh] <= i-w {
			mh++
		}
		for minQ[nh] <= i-w {
			nh++
		}
		visit(i, 1, sl[minQ[nh]].Min, sl[maxQ[mh]].Max)
	}
}

// UnionArea materialises the joint area of all assignments as a cell set.
// Its cost is proportional to the area; use UnionAreaSize when only the
// size is needed.
func UnionArea(f *flexoffer.FlexOffer) CellSet {
	cs := NewCellSet()
	for t := f.EarliestStart; t < f.LatestEnd(); t++ {
		lo, hi, ok := ColumnBounds(f, t)
		if !ok {
			continue
		}
		if hi > 0 {
			columnCells(cs, t, hi)
		}
		if lo < 0 {
			columnCells(cs, t, lo)
		}
	}
	return cs
}

// UnionAreaByEnumeration computes ⋃ area(fa) literally, by enumerating
// every valid assignment (honouring only the slice constraints, matching
// the sweep's semantics) and uniting their areas. It exists to verify
// UnionArea in tests and panics on offers whose assignment space exceeds
// limit; production code should use UnionArea/UnionAreaSize.
func UnionAreaByEnumeration(f *flexoffer.FlexOffer, limit int) (CellSet, error) {
	// Drop the total constraints to mirror the sweep's semantics.
	loose := f.Clone()
	loose.TotalMin = loose.SumMin()
	loose.TotalMax = loose.SumMax()
	cs := NewCellSet()
	err := loose.EnumerateAssignments(limit, func(a flexoffer.Assignment) bool {
		cs.Union(AssignmentArea(a))
		return true
	})
	if err != nil {
		return nil, err
	}
	return cs, nil
}
