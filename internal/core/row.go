package core

import (
	"math"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/grid"
	"flexmeasures/internal/timeseries"
)

// The cells of a measure row (MeasureRow), in Table 1 column order:
// the columns of AllMeasures.
const (
	CellTime = iota
	CellEnergy
	CellProduct
	CellVector
	CellSeries
	CellAssignments
	CellAbsoluteArea
	CellRelativeArea
	// RowWidth is the number of cells in a measure row.
	RowWidth
)

// MeasureRow fills row[:RowWidth] with f's eight measures in Table 1
// order — AllMeasures' columns, with the vector and aligned series
// measures under norm n (0 is L1, as for VectorMeasure) — and folds
// f's Definition 8 count into acc. A cell whose measure fails (a bad
// norm, or relative area on |cmin|+|cmax| = 0) is NaN. Each cell is
// bit-identical to its Measure.Value, but every quantity two cells
// share is computed once: the union area serves both area cells, and
// the exact count both the assignments cell and acc. It allocates
// nothing.
func MeasureRow(row []float64, f *flexoffer.FlexOffer, n timeseries.Norm, acc *AssignmentsProduct) {
	row = row[:RowWidth]
	if n == 0 {
		n = timeseries.L1
	}
	row[CellTime] = float64(TimeFlexibility(f))
	row[CellEnergy] = float64(EnergyFlexibility(f))
	row[CellProduct] = float64(ProductFlexibility(f))
	row[CellVector] = orNaN(VectorFlexibility(f).Norm(n))
	row[CellSeries] = orNaN(AlignedSeriesFlexibility(f, n))
	row[CellAssignments] = assignmentCount(f, acc)
	abs := areaFlexibility(f, grid.UnionAreaSize(f))
	row[CellAbsoluteArea] = float64(abs)
	row[CellRelativeArea] = orNaN(relativeArea(f, abs))
}

// orNaN is v, or NaN when err is set.
func orNaN(v float64, err error) float64 {
	if err != nil {
		return math.NaN()
	}
	return v
}
