package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// StageBuckets are the histogram upper bounds (seconds) for
// per-stage latencies: stages run from microseconds (a pool handoff)
// to seconds (a large schedule), so the range is wider and the floor
// lower than the request histogram's.
var StageBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// Hist is a fixed-bucket latency histogram with atomic counters, so
// observation never takes a lock. Buckets are kept non-cumulative and
// cumulated only by the exposition renderer at scrape time. Create one
// with NewHist; the zero value has no buckets.
type Hist struct {
	bounds []float64
	counts []atomic.Int64 // one per bound, then the +Inf overflow
	sumNs  atomic.Int64
	total  atomic.Int64
}

// NewHist returns an empty histogram over the ascending bucket upper
// bounds, in seconds. The histogram keeps bounds; do not modify it.
func NewHist(bounds []float64) *Hist {
	return &Hist{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe files one duration.
func (h *Hist) Observe(d time.Duration) {
	i := sort.SearchFloat64s(h.bounds, d.Seconds())
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
	h.total.Add(1)
}

// Snapshot returns per-bucket (non-cumulative) counts including the
// +Inf overflow slot, the sum in seconds, and the total count.
func (h *Hist) Snapshot() (counts []int64, sum float64, total int64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, float64(h.sumNs.Load()) / 1e9, h.total.Load()
}

// stageKey identifies one (stage, shard) histogram series. shard -1
// means "no shard label".
type stageKey struct {
	stage string
	shard int
}

// Metrics is the sink for stage observations: one histogram per
// (stage, shard) pair plus pipeline throughput counters. All methods
// are safe on a nil *Metrics (they record nothing), so callers
// instrumenting background work — WAL interval fsyncs, say — need no
// tracer or context.
type Metrics struct {
	stages sync.Map // stageKey -> *Hist
	offers atomic.Int64
	groups atomic.Int64
}

// NewMetrics returns an empty stage-metrics sink.
func NewMetrics() *Metrics { return &Metrics{} }

// Observe files one stage duration under (stage, shard). shard < 0
// means the stage was not shard-scoped.
func (m *Metrics) Observe(stage string, shard int, d time.Duration) {
	if m == nil {
		return
	}
	if shard < 0 {
		shard = -1
	}
	k := stageKey{stage, shard}
	v, ok := m.stages.Load(k)
	if !ok {
		v, _ = m.stages.LoadOrStore(k, NewHist(StageBuckets))
	}
	v.(*Hist).Observe(d)
}

// StageSeries is one (stage, shard) histogram snapshot for rendering.
type StageSeries struct {
	Stage string
	Shard int // -1: no shard label
	// Counts are per-bucket (non-cumulative), one per StageBuckets
	// entry plus a trailing +Inf slot.
	Counts []int64
	Sum    float64
	Total  int64
}

// Series returns a snapshot of every (stage, shard) histogram,
// sorted by stage then shard for deterministic exposition output.
func (m *Metrics) Series() []StageSeries {
	if m == nil {
		return nil
	}
	var out []StageSeries
	m.stages.Range(func(k, v any) bool {
		key := k.(stageKey)
		counts, sum, total := v.(*Hist).Snapshot()
		out = append(out, StageSeries{
			Stage:  key.stage,
			Shard:  key.shard,
			Counts: counts,
			Sum:    sum,
			Total:  total,
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}

// ObserveOffers adds directly to the global ingested-offers counter —
// for paths that have offer counts but no request trace.
func (m *Metrics) ObserveOffers(n int) {
	if m != nil && n > 0 {
		m.offers.Add(int64(n))
	}
}

// Offers returns the total offers ingested across all requests.
func (m *Metrics) Offers() int64 {
	if m == nil {
		return 0
	}
	return m.offers.Load()
}

// Groups returns the total groups formed across all requests.
func (m *Metrics) Groups() int64 {
	if m == nil {
		return 0
	}
	return m.groups.Load()
}
