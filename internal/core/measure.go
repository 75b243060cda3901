package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/timeseries"
)

// ErrEmptySet is returned by SetValue when given no flex-offers.
var ErrEmptySet = errors.New("core: empty flex-offer set")

// ErrUnknownMeasure is returned by the registry for unregistered names.
var ErrUnknownMeasure = errors.New("core: unknown measure")

// Measure presents one of the paper's flexibility measures uniformly, so
// flex-offers and sets of flex-offers can be compared under any measure
// ("Only with a proper flexibility measure, different flexibility
// offerings can be compared together", Section 1).
//
// Value returns the measure as a float64; measures whose natural codomain
// is integral (time, energy, product, absolute area) convert exactly, and
// the assignments measure may round for counts beyond 2^53 (use
// AssignmentFlexibility for the exact big integer).
//
// SetValue extends the measure to a set of flex-offers using the
// aggregation rule Section 4 prescribes for it: summation for most
// measures, the product of counts for the assignments measure (the
// combined assignment space of independent offers), and the average for
// the relative area measure ("the sum of relative flexibilities is not
// meaningful, instead the average relative flexibility could be used").
type Measure interface {
	// Name returns the measure's identifier, e.g. "product" or
	// "vector_l2".
	Name() string
	// Value computes the measure for a single flex-offer.
	Value(f *flexoffer.FlexOffer) (float64, error)
	// SetValue computes the measure for a set of flex-offers.
	SetValue(fs []*flexoffer.FlexOffer) (float64, error)
	// Characteristics returns the measure's Table 1 row.
	Characteristics() Characteristics
}

// sumSet folds Value over the set by summation, the default Section 4
// set rule.
func sumSet(m Measure, fs []*flexoffer.FlexOffer) (float64, error) {
	if len(fs) == 0 {
		return 0, ErrEmptySet
	}
	var total float64
	for i, f := range fs {
		v, err := m.Value(f)
		if err != nil {
			return 0, fmt.Errorf("offer %d: %w", i, err)
		}
		total += v
	}
	return total, nil
}

// TimeMeasure is the Section 3.1 time flexibility tf(f) as a Measure.
type TimeMeasure struct{}

// Name implements Measure.
func (TimeMeasure) Name() string { return "time" }

// Value implements Measure.
func (TimeMeasure) Value(f *flexoffer.FlexOffer) (float64, error) {
	return float64(TimeFlexibility(f)), nil
}

// SetValue implements Measure by summation.
func (m TimeMeasure) SetValue(fs []*flexoffer.FlexOffer) (float64, error) {
	return sumSet(m, fs)
}

// Characteristics implements Measure (Table 1, column "Time").
func (TimeMeasure) Characteristics() Characteristics {
	return Characteristics{
		CapturesTime:     true,
		CapturesPositive: true,
		CapturesNegative: true,
		CapturesMixed:    true,
		SingleValue:      true,
	}
}

// EnergyMeasure is the Section 3.1 energy flexibility ef(f) as a Measure.
type EnergyMeasure struct{}

// Name implements Measure.
func (EnergyMeasure) Name() string { return "energy" }

// Value implements Measure.
func (EnergyMeasure) Value(f *flexoffer.FlexOffer) (float64, error) {
	return float64(EnergyFlexibility(f)), nil
}

// SetValue implements Measure by summation.
func (m EnergyMeasure) SetValue(fs []*flexoffer.FlexOffer) (float64, error) {
	return sumSet(m, fs)
}

// Characteristics implements Measure (Table 1, column "Energy").
func (EnergyMeasure) Characteristics() Characteristics {
	return Characteristics{
		CapturesEnergy:   true,
		CapturesPositive: true,
		CapturesNegative: true,
		CapturesMixed:    true,
		SingleValue:      true,
	}
}

// ProductMeasure is Definition 3 as a Measure.
type ProductMeasure struct{}

// Name implements Measure.
func (ProductMeasure) Name() string { return "product" }

// Value implements Measure.
func (ProductMeasure) Value(f *flexoffer.FlexOffer) (float64, error) {
	return float64(ProductFlexibility(f)), nil
}

// SetValue implements Measure: "To compare two or more sets of
// flex-offers, we should sum the product flexibilities of the flex-offers
// in each set" (Section 4).
func (m ProductMeasure) SetValue(fs []*flexoffer.FlexOffer) (float64, error) {
	return sumSet(m, fs)
}

// Characteristics implements Measure (Table 1, column "Product").
func (ProductMeasure) Characteristics() Characteristics {
	return Characteristics{
		CapturesTimeAndEnergy: true,
		CapturesPositive:      true,
		CapturesNegative:      true,
		CapturesMixed:         true,
		SingleValue:           true,
	}
}

// VectorMeasure is Definition 4 as a Measure, reduced to a single value
// with the configured norm (L1 or L2, per the paper's Example 4).
type VectorMeasure struct {
	// NormKind selects the norm; the zero value defaults to L1.
	NormKind timeseries.Norm
}

func (m VectorMeasure) norm() timeseries.Norm {
	if m.NormKind == 0 {
		return timeseries.L1
	}
	return m.NormKind
}

// Name implements Measure.
func (m VectorMeasure) Name() string {
	switch m.norm() {
	case timeseries.L2:
		return "vector_l2"
	case timeseries.LInf:
		return "vector_linf"
	default:
		return "vector_l1"
	}
}

// Value implements Measure.
func (m VectorMeasure) Value(f *flexoffer.FlexOffer) (float64, error) {
	return VectorFlexibility(f).Norm(m.norm())
}

// SetValue implements Measure by summing the per-offer vector lengths.
func (m VectorMeasure) SetValue(fs []*flexoffer.FlexOffer) (float64, error) {
	return sumSet(m, fs)
}

// Characteristics implements Measure (Table 1, column "Vector").
func (VectorMeasure) Characteristics() Characteristics {
	return Characteristics{
		CapturesTime:          true,
		CapturesEnergy:        true,
		CapturesTimeAndEnergy: true,
		CapturesPositive:      true,
		CapturesNegative:      true,
		CapturesMixed:         true,
		SingleValue:           true,
	}
}

// SeriesMeasure is Definition 7 as a Measure under the configured norm.
//
// Aligned selects the variant whose characteristics match Table 1
// exactly (see AlignedSeriesFlexibility); with Aligned=false the literal
// positioned Definition 7 is evaluated, which is additionally sensitive
// to the profile magnitude whenever tf(f) > 0 (EXPERIMENTS.md, D4).
type SeriesMeasure struct {
	// NormKind selects the norm; the zero value defaults to L1.
	NormKind timeseries.Norm
	// Aligned evaluates both extreme assignments at the same start.
	Aligned bool
}

func (m SeriesMeasure) norm() timeseries.Norm {
	if m.NormKind == 0 {
		return timeseries.L1
	}
	return m.NormKind
}

// Name implements Measure.
func (m SeriesMeasure) Name() string {
	base := "series"
	if m.Aligned {
		base = "series_aligned"
	}
	switch m.norm() {
	case timeseries.L2:
		return base + "_l2"
	case timeseries.LInf:
		return base + "_linf"
	default:
		return base + "_l1"
	}
}

// Value implements Measure.
func (m SeriesMeasure) Value(f *flexoffer.FlexOffer) (float64, error) {
	if m.Aligned {
		return AlignedSeriesFlexibility(f, m.norm())
	}
	return SeriesFlexibility(f, m.norm())
}

// SetValue implements Measure: "by computing the sum of time-series
// flexibilities of the flex-offers in the set" (Section 4).
func (m SeriesMeasure) SetValue(fs []*flexoffer.FlexOffer) (float64, error) {
	return sumSet(m, fs)
}

// Characteristics implements Measure (Table 1, column "Time-series").
func (m SeriesMeasure) Characteristics() Characteristics {
	return Characteristics{
		CapturesEnergy: true,
		// The positioned Definition 7 value additionally grows with
		// the profile magnitude when tf(f) > 0; only the aligned
		// variant is size-independent as Table 1 declares.
		CapturesSize:     !m.Aligned,
		CapturesPositive: true,
		CapturesNegative: true,
		CapturesMixed:    true,
		SingleValue:      true,
	}
}

// AssignmentsMeasure is Definition 8 as a Measure.
type AssignmentsMeasure struct{}

// Name implements Measure.
func (AssignmentsMeasure) Name() string { return "assignments" }

// Value implements Measure. Counts beyond 2^53 lose precision in the
// float64 conversion; AssignmentFlexibility returns the exact count.
// Both conversions below round the exact count to nearest even.
// Counts of positive factors are evaluated without allocating.
func (AssignmentsMeasure) Value(f *flexoffer.FlexOffer) (float64, error) {
	if n, ok := smallAssignmentCount(f); ok {
		return float64(n), nil
	}
	var c wideCount
	if ok, inf := c.set(f); ok {
		if inf {
			return math.Inf(1), nil
		}
		return c.float64(), nil
	}
	v, _ := new(big.Float).SetInt(AssignmentFlexibility(f)).Float64()
	return v, nil
}

// SetValue implements Measure by "counting the number of possible
// assignments for the whole set" (Section 4): the offers choose their
// assignments independently, so the combined count is the product.
//
// The result is exactly the float64 nearest to the product, without
// forming the product of a large fleet: a nonzero count c satisfies
// |c| ≥ 2^(BitLen(c)−1), so once Σ(BitLen−1) reaches 1024 the product
// is beyond float64 range and the value is ±Inf, its sign the parity
// of the negative counts. Until then the counts are multiplied
// exactly; fewer than 1024 of them exceed 1 in magnitude, so the
// running product stays below 2^2048 and each multiplication is cheap.
func (AssignmentsMeasure) SetValue(fs []*flexoffer.FlexOffer) (float64, error) {
	if len(fs) == 0 {
		return 0, ErrEmptySet
	}
	var (
		total = big.NewInt(1) // ∏ c while exp < overflowExp
		exp   int             // Σ (BitLen(|c|) − 1): |∏ c| ≥ 2^exp
		neg   bool            // odd number of negative counts
		small big.Int
	)
	for _, f := range fs {
		if n, ok := smallAssignmentCount(f); ok {
			c := small.SetUint64(n)
			if exp += c.BitLen() - 1; exp < overflowExp {
				total.Mul(total, c)
			}
			continue
		}
		// A count of positive factors multiplies in factor by factor,
		// without materializing it; a count ≥ 2^1024 alone overflows.
		var wide wideCount
		if ok, inf := wide.set(f); ok {
			if inf {
				exp += overflowExp
			} else if exp += wide.bitLen() - 1; exp < overflowExp {
				total.Mul(total, small.SetUint64(uint64(f.TimeFlexibility()+1)))
				for _, s := range f.Slices {
					total.Mul(total, small.SetUint64(uint64(s.Span()+1)))
				}
			}
			continue
		}
		c := AssignmentFlexibility(f)
		switch c.Sign() {
		case 0:
			return 0, nil
		case -1:
			neg = !neg
		}
		if exp += c.BitLen() - 1; exp < overflowExp {
			total.Mul(total, c)
		}
	}
	if exp >= overflowExp {
		if neg {
			return math.Inf(-1), nil
		}
		return math.Inf(1), nil
	}
	v, _ := new(big.Float).SetInt(total).Float64()
	return v, nil
}

// overflowExp is the binary exponent at which a product's magnitude
// leaves float64 range: every value ≥ 2^1024 rounds to ±Inf.
const overflowExp = 1024

// smallAssignmentCount returns f's Definition 8 count when every factor
// is positive and the count fits in a uint64; ok is false otherwise,
// leaving the count to AssignmentFlexibility's big integer. The
// factors are those of flexoffer.AssignmentCount, so the two agree
// wherever ok is true.
func smallAssignmentCount(f *flexoffer.FlexOffer) (n uint64, ok bool) {
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

// wideCount is a Definition 8 count of positive factors below 2^1024 —
// the counts whose float64 value is finite — held as little-endian
// 64-bit words, so it is formed without allocating.
type wideCount struct {
	w [overflowExp / 64]uint64
	n int // words in use; w[n-1] is nonzero
}

// set makes c f's count. ok is false when a factor is not positive,
// leaving the count to AssignmentFlexibility's big integer; inf
// reports a count of at least 2^1024, which c does not hold.
func (c *wideCount) set(f *flexoffer.FlexOffer) (ok, inf bool) {
	t := int64(f.TimeFlexibility() + 1)
	if t <= 0 {
		return false, false
	}
	c.w[0], c.n = uint64(t), 1
	for _, s := range f.Slices {
		k := s.Span() + 1
		if k <= 0 {
			return false, false
		}
		if !inf {
			inf = !c.mul(uint64(k))
		}
	}
	return true, inf
}

// mul multiplies c by k, reporting false when the product reaches
// 2^1024.
func (c *wideCount) mul(k uint64) bool {
	var carry uint64
	for i := 0; i < c.n; i++ {
		hi, lo := bits.Mul64(c.w[i], k)
		var cc uint64
		c.w[i], cc = bits.Add64(lo, carry, 0)
		carry = hi + cc
	}
	if carry != 0 {
		if c.n == len(c.w) {
			return false
		}
		c.w[c.n] = carry
		c.n++
	}
	return true
}

// bitLen is the count's length in bits.
func (c *wideCount) bitLen() int {
	return 64*(c.n-1) + bits.Len64(c.w[c.n-1])
}

// float64 is the float64 nearest to the count, ties to even — what
// big.Float's SetInt(count).Float64() returns. The top 64 bits are
// converted with every lower bit folded into the last as a sticky bit:
// the conversion's one rounding then sees exact halves and anything
// above them exactly as the full count would, and the scaling by a
// power of two is exact (or overflows to +Inf like the rounding would).
func (c *wideCount) float64() float64 {
	if c.n == 1 {
		return float64(c.w[0])
	}
	s := uint(bits.LeadingZeros64(c.w[c.n-1]))
	m := c.w[c.n-1]<<s | c.w[c.n-2]>>(64-s)
	sticky := c.w[c.n-2]<<s != 0
	for _, w := range c.w[:c.n-2] {
		sticky = sticky || w != 0
	}
	if sticky {
		m |= 1
	}
	return math.Ldexp(float64(m), 64*(c.n-1)-int(s))
}

// Characteristics implements Measure (Table 1, column "Assignments").
func (AssignmentsMeasure) Characteristics() Characteristics {
	return Characteristics{
		CapturesTime:          true,
		CapturesEnergy:        true,
		CapturesTimeAndEnergy: true,
		CapturesPositive:      true,
		CapturesNegative:      true,
		CapturesMixed:         true,
		SingleValue:           true,
	}
}

// AbsoluteAreaMeasure is Definition 10 as a Measure.
type AbsoluteAreaMeasure struct{}

// Name implements Measure.
func (AbsoluteAreaMeasure) Name() string { return "absolute_area" }

// Value implements Measure.
func (AbsoluteAreaMeasure) Value(f *flexoffer.FlexOffer) (float64, error) {
	return float64(AbsoluteAreaFlexibility(f)), nil
}

// SetValue implements Measure: "absolute area-based flexibility can be
// used to compare the total absolute flexibility of two or more sets …
// by summing up the individual absolute area-based flexibility values"
// (Section 4).
func (m AbsoluteAreaMeasure) SetValue(fs []*flexoffer.FlexOffer) (float64, error) {
	return sumSet(m, fs)
}

// Characteristics implements Measure (Table 1, column "Abs. Area").
func (AbsoluteAreaMeasure) Characteristics() Characteristics {
	return Characteristics{
		CapturesTime:          true,
		CapturesEnergy:        true,
		CapturesTimeAndEnergy: true,
		CapturesSize:          true,
		CapturesPositive:      true,
		CapturesNegative:      true,
		CapturesMixed:         false, // Section 4: infeasible for mixed offers
		SingleValue:           true,
	}
}

// RelativeAreaMeasure is Definition 11 as a Measure.
type RelativeAreaMeasure struct{}

// Name implements Measure.
func (RelativeAreaMeasure) Name() string { return "relative_area" }

// Value implements Measure.
func (RelativeAreaMeasure) Value(f *flexoffer.FlexOffer) (float64, error) {
	return RelativeAreaFlexibility(f)
}

// SetValue implements Measure by averaging: "the sum of relative
// flexibilities is not meaningful, instead the average relative
// flexibility could be used" (Section 4).
func (m RelativeAreaMeasure) SetValue(fs []*flexoffer.FlexOffer) (float64, error) {
	sum, err := sumSet(m, fs)
	if err != nil {
		return 0, err
	}
	return sum / float64(len(fs)), nil
}

// Characteristics implements Measure (Table 1, column "Rel. Area").
func (RelativeAreaMeasure) Characteristics() Characteristics {
	return Characteristics{
		CapturesTime:          true,
		CapturesEnergy:        true,
		CapturesTimeAndEnergy: true,
		CapturesSize:          true,
		CapturesPositive:      true,
		CapturesNegative:      true,
		CapturesMixed:         false, // Section 4: infeasible for mixed offers
		SingleValue:           true,
	}
}

// AllMeasures returns the paper's eight measures in Table 1 column order.
// The vector and series measures use the Manhattan norm; the series
// measure uses the aligned variant, whose behaviour matches every
// Table 1 cell (measure.go documents the alternative).
func AllMeasures() []Measure {
	return []Measure{
		TimeMeasure{},
		EnergyMeasure{},
		ProductMeasure{},
		VectorMeasure{NormKind: timeseries.L1},
		SeriesMeasure{NormKind: timeseries.L1, Aligned: true},
		AssignmentsMeasure{},
		AbsoluteAreaMeasure{},
		RelativeAreaMeasure{},
	}
}

// LookupMeasure resolves a measure by its Name, covering the eight
// canonical measures, the norm and alignment variants, and the
// extension measures. It returns ErrUnknownMeasure for unrecognised
// names.
func LookupMeasure(name string) (Measure, error) {
	all := append(AllMeasures(),
		VectorMeasure{NormKind: timeseries.L2},
		VectorMeasure{NormKind: timeseries.LInf},
		SeriesMeasure{NormKind: timeseries.L1},
		SeriesMeasure{NormKind: timeseries.L2},
		SeriesMeasure{NormKind: timeseries.L2, Aligned: true},
	)
	all = append(all, ExtensionMeasures()...)
	for _, m := range all {
		if m.Name() == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownMeasure, name)
}

// MeasureNames returns the Name of every measure AllMeasures exposes, in
// order; convenient for CLI help texts and table headers.
func MeasureNames() []string {
	ms := AllMeasures()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name()
	}
	return names
}
