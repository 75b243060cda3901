package flex

import (
	"math/rand"

	"flexmeasures/internal/market"
	"flexmeasures/internal/sched"
	"flexmeasures/internal/workload"
)

// Scheduling (Scenario 1).
type (
	// ScheduleResult is a complete schedule with its load series.
	ScheduleResult = sched.Result
	// ScheduleOrder selects the greedy placement order.
	ScheduleOrder = sched.Order
)

// Placement orders for WithPlacement.
const (
	OrderArrival            = sched.OrderArrival
	OrderLeastFlexibleFirst = sched.OrderLeastFlexibleFirst
	OrderMostFlexibleFirst  = sched.OrderMostFlexibleFirst
)

// Market (Scenario 2).
type (
	// PriceCurve holds one spot price per time unit.
	PriceCurve = market.PriceCurve
	// Valuation prices an offer's flexibility against a curve.
	Valuation = market.Valuation
	// Portfolio is an aggregator's book of tradeable lots.
	Portfolio = market.Portfolio
	// Lot is one tradeable aggregate with its valuation.
	Lot = market.Lot
)

// BuildPortfolio partitions aggregates by the market's minimum lot
// energy (Scenario 2: "only large aggregated flex-offers are allowed to
// be traded").
func BuildPortfolio(ags []*Aggregated, minLotEnergy int64) (*Portfolio, error) {
	return market.BuildPortfolio(ags, minLotEnergy)
}

// ValueOfFlexibility returns the market value of an offer's flexibility:
// inflexible baseline cost minus price-optimal cost.
func ValueOfFlexibility(f *FlexOffer, p PriceCurve) (Valuation, error) {
	return market.ValueOfFlexibility(f, p)
}

// CheapestAssignment returns the cost-minimal valid assignment of f
// under the curve.
func CheapestAssignment(f *FlexOffer, p PriceCurve) (Assignment, error) {
	return p.CheapestAssignment(f)
}

// Settlement prices a delivered series against a traded baseline with
// imbalance penalties.
func Settlement(delivered, traded Series, p PriceCurve, penaltyRate float64) (float64, error) {
	return market.Settlement(delivered, traded, p, penaltyRate)
}

// Synthetic workloads (the TotalFlex-data substitute).
type (
	// Device enumerates prosumer device classes.
	Device = workload.Device
	// Mix weights device classes for Population.
	Mix = workload.Mix
)

// Device classes.
const (
	EV            = workload.EV
	HeatPump      = workload.HeatPump
	Dishwasher    = workload.Dishwasher
	Refrigerator  = workload.Refrigerator
	SolarPanel    = workload.SolarPanel
	WindTurbine   = workload.WindTurbine
	VehicleToGrid = workload.VehicleToGrid
)

// SlotsPerDay is the number of time units per day (hourly resolution).
const SlotsPerDay = workload.SlotsPerDay

// GenerateOffer creates one synthetic flex-offer of the device class.
func GenerateOffer(r *rand.Rand, d Device) (*FlexOffer, error) {
	return workload.Generate(r, d)
}

// Population samples n offers from the mix, spread over days.
func Population(r *rand.Rand, n, days int, mix Mix) ([]*FlexOffer, error) {
	return workload.Population(r, n, days, mix)
}

// DefaultMix is a residential neighbourhood mix; ConsumptionMix contains
// only consumption devices (required by the area measures).
func DefaultMix() Mix     { return workload.DefaultMix() }
func ConsumptionMix() Mix { return workload.ConsumptionMix() }

// WindProfile returns a synthetic wind-production target series.
func WindProfile(r *rand.Rand, horizon int, scale int64) Series {
	return workload.WindProfile(r, horizon, scale)
}

// DayAheadPrices returns a synthetic day-ahead spot price curve.
func DayAheadPrices(r *rand.Rand, horizon int) PriceCurve {
	return workload.DayAheadPrices(r, horizon)
}
