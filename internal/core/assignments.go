package core

import (
	"math"
	"math/bits"

	"flexmeasures/internal/flexoffer"
)

// overflowExp is the binary exponent at which a count's or product's
// magnitude leaves float64 range: every value ≥ 2^1024 rounds to ±Inf.
const overflowExp = 1024

// AssignmentsProduct accumulates the assignments measure's set value,
// the product of the offers' Definition 8 counts, exactly and without
// allocating. Its zero value is the empty product; Add folds in one
// offer, Merge another accumulator, and Value converts once, so a
// fleet split into blocks can be folded on separate workers and merged
// in any order to the same value.
//
// A nonzero count c satisfies |c| ≥ 2^(BitLen(c)−1), so once
// exp = Σ(BitLen−1) reaches 1024 the product is beyond float64 range
// and only its sign, the parity of the negative counts, is kept. Below
// that fewer than 1024 counts exceed 1 in magnitude, so the product's
// magnitude stays below 2^2048 and fits fixed words.
type AssignmentsProduct struct {
	exp  int  // Σ(BitLen(|c|) − 1): |∏ c| ≥ 2^exp
	zero bool // some count is 0
	neg  bool // odd number of negative counts
	n    int  // words of p in use; 0 is the empty product, 1
	p    [2 * overflowExp / 64]uint64
}

// Add multiplies f's Definition 8 count into the product.
func (a *AssignmentsProduct) Add(f *flexoffer.FlexOffer) { assignmentCount(f, a) }

// Merge multiplies b's product into a's.
func (a *AssignmentsProduct) Merge(b *AssignmentsProduct) {
	a.zero = a.zero || b.zero
	a.neg = a.neg != b.neg
	if a.exp += b.exp; a.exp < overflowExp && b.n > 0 {
		a.mul(b.p[:b.n])
	}
}

// Value is the float64 nearest to the product, ties to even: what
// big.Float's SetInt(product).Float64() returns.
func (a *AssignmentsProduct) Value() float64 {
	var v float64
	switch {
	case a.zero:
		return 0
	case a.exp >= overflowExp:
		v = math.Inf(1)
	case a.n == 0:
		v = 1
	default:
		v = wordsFloat64(a.p[:a.n])
	}
	if a.neg {
		v = -v
	}
	return v
}

// assignmentCount is the float64 nearest to f's Definition 8 count,
// ties to even — what big.Float's SetInt(count).Float64() returns —
// and, when acc is non-nil, multiplies the exact count into acc.
// Counts of positive factors below 2^64, every realistic offer's, are
// formed in one word; any other count is formed factor by factor.
func assignmentCount(f *flexoffer.FlexOffer, acc *AssignmentsProduct) float64 {
	if n, ok := smallCount(f); ok {
		if acc != nil {
			acc.addWord(n)
		}
		return float64(n)
	}
	var c offerCount
	c.set(f)
	if acc != nil {
		acc.add(&c)
	}
	return c.float64()
}

// smallCount is f's count when every factor is positive and the count
// is below 2^64; ok is false otherwise.
func smallCount(f *flexoffer.FlexOffer) (n uint64, ok bool) {
	t := int64(f.TimeFlexibility() + 1)
	if t <= 0 {
		return 0, false
	}
	n = uint64(t)
	for _, s := range f.Slices {
		k := s.Span() + 1
		if k <= 0 {
			return 0, false
		}
		hi, lo := bits.Mul64(n, uint64(k))
		if hi != 0 {
			return 0, false
		}
		n = lo
	}
	return n, true
}

// addWord multiplies the count n ≥ 1 into the product.
func (a *AssignmentsProduct) addWord(n uint64) {
	if a.exp += bits.Len64(n) - 1; a.exp < overflowExp {
		a.mul([]uint64{n})
	}
}

// add multiplies the count c into the product.
func (a *AssignmentsProduct) add(c *offerCount) {
	if c.zero {
		a.zero = true
		return
	}
	a.neg = a.neg != c.neg
	if c.inf {
		a.exp += overflowExp
		return
	}
	if a.exp += c.mag.bitLen() - 1; a.exp < overflowExp {
		a.mul(c.mag.w[:c.mag.n])
	}
}

// mul multiplies the magnitude by x, little-endian words with a
// nonzero top word. The caller has checked exp < 1024, so the product
// fits p.
func (a *AssignmentsProduct) mul(x []uint64) {
	if a.n == 0 {
		a.n = copy(a.p[:], x)
		return
	}
	if len(x) == 1 {
		a.n, _ = mulWord(a.p[:], a.n, x[0]) // fits: see above
		return
	}
	var t [2 * len(a.p)]uint64
	for i, y := range x {
		var carry uint64
		for j, w := range a.p[:a.n] {
			hi, lo := bits.Mul64(w, y)
			var c1, c2 uint64
			lo, c1 = bits.Add64(lo, t[i+j], 0)
			t[i+j], c2 = bits.Add64(lo, carry, 0)
			carry = hi + c1 + c2
		}
		t[i+a.n] = carry
	}
	n := a.n + len(x)
	for t[n-1] == 0 {
		n--
	}
	a.n = copy(a.p[:], t[:n])
}

// offerCount is one offer's Definition 8 count (tls−tes+1)·∏(amax−amin+1),
// each factor formed in int64 arithmetic exactly as
// flexoffer.AssignmentCount forms it: the magnitude below 2^1024 in
// words, with flags for a zero factor, an odd number of negative
// factors, and a magnitude of at least 2^1024, which mag does not hold.
type offerCount struct {
	mag            wideCount
	zero, neg, inf bool
}

// set makes c f's count.
func (c *offerCount) set(f *flexoffer.FlexOffer) {
	c.mag.w[0], c.mag.n = 1, 1
	c.zero, c.neg, c.inf = false, false, false
	c.factor(int64(f.TimeFlexibility() + 1))
	for _, s := range f.Slices {
		c.factor(s.Span() + 1)
	}
}

// factor multiplies c by k.
func (c *offerCount) factor(k int64) {
	m := uint64(k)
	switch {
	case k == 0:
		c.zero = true
		return
	case k < 0:
		c.neg = !c.neg
		m = -m // |k|, also for MinInt64
	}
	if !c.zero && !c.inf {
		c.inf = !c.mag.mul(m)
	}
}

// float64 is the float64 nearest to the count, ties to even.
func (c *offerCount) float64() float64 {
	var v float64
	switch {
	case c.zero:
		return 0
	case c.inf:
		v = math.Inf(1)
	default:
		v = c.mag.float64()
	}
	if c.neg {
		v = -v
	}
	return v
}

// wideCount is a magnitude below 2^1024 — a value whose float64 is
// finite — held as little-endian 64-bit words, so it is formed without
// allocating.
type wideCount struct {
	w [overflowExp / 64]uint64
	n int // words in use; w[n-1] is nonzero
}

// mul multiplies c by k ≥ 1, reporting false when the product reaches
// 2^1024.
func (c *wideCount) mul(k uint64) bool {
	n, ok := mulWord(c.w[:], c.n, k)
	c.n = n
	return ok
}

// mulWord multiplies the little-endian words w[:n] by k ≥ 1 in place
// and returns the product's length in words; ok is false when the
// product needs more than len(w) words, which are then not all held.
func mulWord(w []uint64, n int, k uint64) (int, bool) {
	var carry uint64
	for i := range w[:n] {
		hi, lo := bits.Mul64(w[i], k)
		var cc uint64
		w[i], cc = bits.Add64(lo, carry, 0)
		carry = hi + cc
	}
	if carry == 0 {
		return n, true
	}
	if n == len(w) {
		return n, false
	}
	w[n] = carry
	return n + 1, true
}

// bitLen is the magnitude's length in bits.
func (c *wideCount) bitLen() int {
	return 64*(c.n-1) + bits.Len64(c.w[c.n-1])
}

// float64 is the float64 nearest to the magnitude, ties to even — what
// big.Float's SetInt(count).Float64() returns.
func (c *wideCount) float64() float64 { return wordsFloat64(c.w[:c.n]) }

// wordsFloat64 is the float64 nearest to the little-endian words w,
// whose top word is nonzero, ties to even. The top 64 bits are
// converted with every lower bit folded into the last as a sticky bit:
// the conversion's one rounding then sees exact halves and anything
// above them exactly as the full value would, and the scaling by a
// power of two is exact (or overflows to +Inf like the rounding would).
func wordsFloat64(w []uint64) float64 {
	n := len(w)
	if n == 1 {
		return float64(w[0])
	}
	s := uint(bits.LeadingZeros64(w[n-1]))
	m := w[n-1]<<s | w[n-2]>>(64-s)
	sticky := w[n-2]<<s != 0
	for _, x := range w[:n-2] {
		sticky = sticky || x != 0
	}
	if sticky {
		m |= 1
	}
	return math.Ldexp(float64(m), 64*(n-1)-int(s))
}
