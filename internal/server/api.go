// Package server exposes a flex.Engine over HTTP: the flexd service.
//
// The wire contract lives in this file and is shared with cmd/flexctl's
// -json output, which is what makes the acceptance criterion checkable
// at the byte level: the same inputs produce bit-identical bytes
// whether they flow through `flexctl schedule -pipeline -json` or
// through `POST /v1/schedule` — both render their results with
// BuildScheduleResponse + EncodeResponse.
package server

import (
	"encoding/json"
	"io"
	"math"
	"strconv"

	flex "flexmeasures"
	"flexmeasures/internal/flexoffer"
)

// IngestResponse reports one POST /v1/offers call.
type IngestResponse struct {
	// Ingested is the number of records decoded by this request.
	Ingested int `json:"ingested"`
	// Replaced is how many of those records overwrote an already-stored
	// offer with the same ID (last write wins) — the per-prosumer
	// identity a re-submitting device relies on. Records without an ID
	// are always appended.
	Replaced int `json:"replaced"`
	// Stored is the store's total offer count after the request.
	Stored int `json:"stored"`
}

// StoreResponse reports the offer store's size (GET/DELETE /v1/offers).
type StoreResponse struct {
	Stored int `json:"stored"`
}

// AggregateInfo summarizes one aggregate of an aggregation run.
type AggregateInfo struct {
	// Constituents is the number of offers aggregated into this group.
	Constituents int `json:"constituents"`
	// Kind is the aggregate offer's kind (positive/negative/mixed).
	Kind string `json:"kind"`
	// TimeFlexibility is tf of the aggregate offer.
	TimeFlexibility int `json:"timeFlexibility"`
	// EnergyFlexibility is ef of the aggregate offer.
	EnergyFlexibility int64 `json:"energyFlexibility"`
	// Offer is the aggregate flex-offer itself.
	Offer *flexoffer.FlexOffer `json:"offer"`
}

// AggregateResponse is POST /v1/aggregate's result.
type AggregateResponse struct {
	// Offers is the number of input offers.
	Offers int `json:"offers"`
	// Groups is the number of aggregates produced.
	Groups int `json:"groups"`
	// Aggregates holds one entry per group, in group order.
	Aggregates []AggregateInfo `json:"aggregates"`
}

// BuildAggregateResponse renders an aggregation run in the wire shape.
func BuildAggregateResponse(nOffers int, ags []*flex.Aggregated) *AggregateResponse {
	resp := &AggregateResponse{
		Offers:     nOffers,
		Groups:     len(ags),
		Aggregates: make([]AggregateInfo, len(ags)),
	}
	for i, ag := range ags {
		resp.Aggregates[i] = AggregateInfo{
			Constituents:      len(ag.Constituents),
			Kind:              ag.Offer.Kind().String(),
			TimeFlexibility:   ag.Offer.TimeFlexibility(),
			EnergyFlexibility: ag.Offer.EnergyFlexibility(),
			Offer:             ag.Offer,
		}
	}
	return resp
}

// SeriesJSON is the wire shape of a time series.
type SeriesJSON struct {
	Start  int     `json:"start"`
	Values []int64 `json:"values"`
}

// ScheduleResponse is POST /v1/schedule's result: the paper's full
// Scenario-1 chain from stored offers to per-prosumer assignments.
type ScheduleResponse struct {
	// Offers is the number of input offers.
	Offers int `json:"offers"`
	// Aggregates is the number of aggregated groups scheduled.
	Aggregates int `json:"aggregates"`
	// Prosumers is the total number of constituent assignments.
	Prosumers int `json:"prosumers"`
	// Horizon is the scheduling horizon in time units.
	Horizon int `json:"horizon"`
	// TargetLevel is the flat per-slot target the schedule tracked.
	TargetLevel int64 `json:"targetLevel"`
	// Imbalance is the L1 distance between load and target.
	Imbalance float64 `json:"imbalance"`
	// PeakLoad is the maximum absolute load of the schedule.
	PeakLoad int64 `json:"peakLoad"`
	// Load is the slot-wise total load.
	Load SeriesJSON `json:"load"`
	// AggregateAssignments[i] instantiates aggregate i's offer.
	AggregateAssignments []flexoffer.Assignment `json:"aggregateAssignments"`
	// Disaggregated[i][j] is the assignment of aggregate i's
	// constituent j; slot-wise sums reproduce Load exactly.
	Disaggregated [][]flexoffer.Assignment `json:"disaggregated"`
}

// BuildScheduleResponse renders a pipeline run in the wire shape. It is
// the single rendering path for both the HTTP endpoint and flexctl's
// -json output.
func BuildScheduleResponse(nOffers int, res *flex.PipelineResult, target flex.Series, horizon int, level int64) *ScheduleResponse {
	prosumers := 0
	for _, parts := range res.Disaggregated {
		prosumers += len(parts)
	}
	return &ScheduleResponse{
		Offers:               nOffers,
		Aggregates:           len(res.Aggregates),
		Prosumers:            prosumers,
		Horizon:              horizon,
		TargetLevel:          level,
		Imbalance:            res.AggregateSchedule.Imbalance(target),
		PeakLoad:             res.AggregateSchedule.PeakLoad(),
		Load:                 SeriesJSON{Start: res.Load.Start, Values: res.Load.Values},
		AggregateAssignments: res.AggregateSchedule.Assignments,
		Disaggregated:        res.Disaggregated,
	}
}

// FlatTargetLevel resolves the flat per-slot target level the schedule
// endpoints and flexctl share: a non-negative level is used as-is, a
// negative one means "the fleet's expected energy averaged over the
// horizon".
func FlatTargetLevel(offers []*flexoffer.FlexOffer, horizon int, level int64) int64 {
	if level >= 0 {
		return level
	}
	var expected int64
	for _, f := range offers {
		expected += (f.TotalMin + f.TotalMax) / 2
	}
	return expected / int64(horizon)
}

// FlatTargetLevelRouted is FlatTargetLevel over a routed (per-shard)
// snapshot. The expected-energy sum is commutative, so the result is
// identical to flattening the parts first — the shard count cannot
// change the resolved target.
func FlatTargetLevelRouted(parts [][]flex.RoutedOffer, horizon int, level int64) int64 {
	if level >= 0 {
		return level
	}
	var expected int64
	for _, part := range parts {
		for _, e := range part {
			expected += (e.Offer.TotalMin + e.Offer.TotalMax) / 2
		}
	}
	return expected / int64(horizon)
}

// StreamScheduleResponse writes resp incrementally: the head and then
// the disaggregated assignments — the bulk of a big fleet's response —
// are appended without reflection into one buffer that is written and
// flushed whenever it passes 32 KiB, and once at the end, instead of
// being materialized as a single document.
// The bytes are exactly EncodeResponse(w, resp); only the peak memory
// differs. It is streamSchedule without a previous encoding to reuse.
func StreamScheduleResponse(w io.Writer, resp *ScheduleResponse) error {
	_, _, err := streamSchedule(w, resp, nil, false)
	return err
}

// encodedGroups is one streamed schedule body kept for the next: the
// body bytes and, per group, where its disaggregated JSON sits in them,
// keyed by the group's assignment slice. The incremental pipeline hands
// a group whose disaggregation it carried over the very same slice, and
// nothing mutates a delivered slice, so a key that matches — first
// element's address and length — names the same bytes. Each key points
// into its slice and so keeps it alive: no address can be reused by
// another slice while it is indexed.
type encodedGroups struct {
	body  []byte
	spans map[*flexoffer.Assignment]groupSpan
}

// groupSpan locates one group's JSON, body[lo:hi], encoded from a slice
// of n assignments.
type groupSpan struct {
	lo, hi, n int
}

// lookup returns the previously encoded bytes of group, if any.
func (e *encodedGroups) lookup(group []flexoffer.Assignment) ([]byte, bool) {
	if e == nil || len(group) == 0 {
		return nil, false
	}
	sp, ok := e.spans[&group[0]]
	if !ok || sp.n != len(group) {
		return nil, false
	}
	return e.body[sp.lo:sp.hi], true
}

// streamSchedule writes resp as StreamScheduleResponse does, copying
// the bytes of every group prev encoded instead of re-encoding it. With
// keep set it keeps the whole body in one buffer (still written and
// flushed every 32 KiB) and returns it indexed for the next call,
// together with the number of groups it copied. Writing stops at the
// first error.
func streamSchedule(w io.Writer, resp *ScheduleResponse, prev *encodedGroups, keep bool) (*encodedGroups, int, error) {
	if math.IsNaN(resp.Imbalance) || math.IsInf(resp.Imbalance, 0) {
		// encoding/json refuses non-finite floats; report its error.
		_, err := json.Marshal(resp.Imbalance)
		return nil, 0, err
	}
	f, _ := w.(interface{ Flush() })
	emit := func(b []byte) error {
		if _, err := w.Write(b); err != nil {
			return err
		}
		if f != nil {
			f.Flush()
		}
		return nil
	}
	size := 2 * scheduleChunk
	if keep && prev != nil {
		size += len(prev.body)
	}
	b := appendScheduleHead(make([]byte, 0, size), resp)
	b = append(b, `,"disaggregated":`...)
	if resp.Disaggregated == nil {
		return nil, 0, emit(append(b, "null}\n"...))
	}
	var next *encodedGroups
	if keep {
		next = &encodedGroups{spans: make(map[*flexoffer.Assignment]groupSpan, len(resp.Disaggregated))}
	}
	b = append(b, '[')
	reused, written := 0, 0
	for i, group := range resp.Disaggregated {
		if i > 0 {
			b = append(b, ',')
		}
		lo := len(b)
		if enc, ok := prev.lookup(group); ok {
			b = append(b, enc...)
			reused++
		} else {
			b = appendAssignments(b, group)
		}
		if keep && len(group) > 0 {
			next.spans[&group[0]] = groupSpan{lo: lo, hi: len(b), n: len(group)}
		}
		if len(b)-written >= scheduleChunk {
			if err := emit(b[written:]); err != nil {
				return nil, reused, err
			}
			if written = len(b); !keep {
				b, written = b[:0], 0
			}
		}
	}
	b = append(b, "]}\n"...)
	if err := emit(b[written:]); err != nil {
		return nil, reused, err
	}
	if keep {
		next.body = b
	}
	return next, reused, nil
}

// appendScheduleHead appends resp as json.Marshal encodes it up to,
// not including, the "disaggregated" field: every field before it, in
// ScheduleResponse's order, without reflection. resp.Imbalance must be
// finite.
func appendScheduleHead(b []byte, resp *ScheduleResponse) []byte {
	b = strconv.AppendInt(append(b, `{"offers":`...), int64(resp.Offers), 10)
	b = strconv.AppendInt(append(b, `,"aggregates":`...), int64(resp.Aggregates), 10)
	b = strconv.AppendInt(append(b, `,"prosumers":`...), int64(resp.Prosumers), 10)
	b = strconv.AppendInt(append(b, `,"horizon":`...), int64(resp.Horizon), 10)
	b = strconv.AppendInt(append(b, `,"targetLevel":`...), resp.TargetLevel, 10)
	b = appendJSONFloat(append(b, `,"imbalance":`...), resp.Imbalance)
	b = strconv.AppendInt(append(b, `,"peakLoad":`...), resp.PeakLoad, 10)
	b = strconv.AppendInt(append(b, `,"load":{"start":`...), int64(resp.Load.Start), 10)
	b = appendInts(append(b, `,"values":`...), resp.Load.Values)
	b = append(b, `},"aggregateAssignments":`...)
	return appendAssignments(b, resp.AggregateAssignments)
}

// scheduleChunk is the size at which StreamScheduleResponse writes and
// flushes its buffer.
const scheduleChunk = 32 << 10

// appendAssignments appends as as json.Marshal encodes it: a JSON
// array of {"start":…,"values":[…]} objects, null for a nil slice or
// nil Values.
func appendAssignments(b []byte, as []flexoffer.Assignment) []byte {
	if as == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, a := range as {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"start":`...)
		b = strconv.AppendInt(b, int64(a.Start), 10)
		b = appendInts(append(b, `,"values":`...), a.Values)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendInts appends vs as a JSON array of integers, null for a nil
// slice.
func appendInts(b []byte, vs []int64) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for j, v := range vs {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, ']')
}

// JSONFloat is a float64 that marshals NaN and infinities as null —
// the measure table contains NaN for undefined cells, which plain
// encoding/json refuses to encode.
type JSONFloat float64

// MarshalJSON encodes non-finite values as null.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// MeasuresResponse is GET /v1/measures' result: the paper's eight
// measures over the stored offers, Table 1 column order, null where a
// measure is undefined for an offer.
type MeasuresResponse struct {
	// Names holds the measure names.
	Names []string `json:"names"`
	// Values[i][j] is measure j on offer i (null where undefined).
	Values [][]JSONFloat `json:"values"`
	// Set[j] is measure j's set-level value (null where undefined).
	Set []JSONFloat `json:"set"`
}

// BuildMeasuresResponse renders a measure table in the wire shape.
func BuildMeasuresResponse(t *flex.MeasureTable) *MeasuresResponse {
	resp := &MeasuresResponse{
		Names:  t.Names,
		Values: make([][]JSONFloat, len(t.Values)),
		Set:    make([]JSONFloat, len(t.Set)),
	}
	for i, row := range t.Values {
		out := make([]JSONFloat, len(row))
		for j, v := range row {
			out[j] = JSONFloat(v)
		}
		resp.Values[i] = out
	}
	for j, v := range t.Set {
		resp.Set[j] = JSONFloat(v)
	}
	return resp
}

// RecordErrorInfo is the wire shape of one failed ingest record.
type RecordErrorInfo struct {
	Record int    `json:"record"`
	Line   int    `json:"line"`
	Error  string `json:"error"`
}

// ErrorResponse is the body of every non-2xx JSON response.
type ErrorResponse struct {
	// Error is the human-readable failure summary.
	Error string `json:"error"`
	// Records identifies the failing ingest records, when the failure
	// was per-record (absent otherwise).
	Records []RecordErrorInfo `json:"records,omitempty"`
}

// DecodeResponse reads one wire value as encoded by EncodeResponse —
// the client-side half, used by flexctl push.
func DecodeResponse(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// EncodeResponse writes v as one line of compact JSON — the single
// serialization path of every wire type, shared by the HTTP handlers
// and flexctl -json so their bytes can be compared directly. A
// *MeasuresResponse, one float per offer and measure, takes an
// append-based path that writes the same bytes as json.Marshal.
func EncodeResponse(w io.Writer, v any) error {
	var data []byte
	if m, ok := v.(*MeasuresResponse); ok && m != nil {
		data = appendMeasuresResponse(m)
	} else {
		var err error
		if data, err = json.Marshal(v); err != nil {
			return err
		}
	}
	data = append(data, '\n')
	_, err := w.Write(data)
	return err
}

// appendMeasuresResponse renders m as json.Marshal(m) does, into one
// buffer sized for the table, without reflection or a MarshalJSON call
// per cell.
func appendMeasuresResponse(m *MeasuresResponse) []byte {
	size := 64 + measureRowsBytes(m.Values) + (len(m.Set)+1)*cellBytes
	for _, name := range m.Names {
		size += len(name) + 3 // quotes and comma
	}
	b := appendMeasuresHead(make([]byte, 0, size), m.Names)
	if m.Values == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		b = appendMeasureRows(b, m.Values, true)
		b = append(b, ']')
	}
	return appendMeasuresTail(b, m.Set)
}

// appendMeasuresHead appends a measures document up to its "values"
// array: {"names":[…],"values":
func appendMeasuresHead(b []byte, names []string) []byte {
	data, _ := json.Marshal(names) // a []string always marshals
	b = append(b, `{"names":`...)
	b = append(b, data...)
	return append(b, `,"values":`...)
}

// appendMeasuresTail appends the rest of a measures document after its
// "values" array: ,"set":[…]}
func appendMeasuresTail[F ~float64](b []byte, set []F) []byte {
	b = append(b, `,"set":`...)
	b = appendJSONFloats(b, set)
	return append(b, '}')
}

// appendMeasureRows appends rows as consecutive elements of the
// "values" array, one JSON array of cells per row; first says whether
// rows[0] opens the array (otherwise it follows an earlier row and is
// preceded by a comma). It is the one place the row and cell format is
// written: EncodeResponse's *MeasuresResponse path and the streamed
// GET /v1/measures body both go through it.
func appendMeasureRows[F ~float64](b []byte, rows [][]F, first bool) []byte {
	for i, row := range rows {
		if i > 0 || !first {
			b = append(b, ',')
		}
		b = appendJSONFloats(b, row)
	}
	return b
}

// measureRowsBytes is the buffer budget of appendMeasureRows(rows).
func measureRowsBytes[F ~float64](rows [][]F) int {
	cells := 0
	for _, row := range rows {
		cells += len(row) + 1 // a row's brackets and comma count as one cell
	}
	return cells * cellBytes
}

// cellBytes is the buffer budget per measures cell: most cells are
// short integers or nulls, so the buffer rarely has to grow.
const cellBytes = 12

// appendJSONFloats appends xs as a JSON array, null for a nil slice.
func appendJSONFloats[F ~float64](b []byte, xs []F) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for j, x := range xs {
		if j > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, float64(x))
	}
	return append(b, ']')
}

// appendJSONFloat appends x as JSONFloat.MarshalJSON encodes it: null
// when x is NaN or infinite, otherwise encoding/json's float64 form —
// the shortest 'f' representation, or 'e' when |x| < 1e-6 or
// |x| ≥ 1e21, with a two-digit negative exponent shortened (e-07 →
// e-7). An integral x below 2^53 in magnitude, other than −0, is
// appended as the integer itself: every integer in that range is
// exactly representable, so its shortest 'f' form is just its digits.
func appendJSONFloat(b []byte, x float64) []byte {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return append(b, "null"...)
	}
	if x == math.Trunc(x) && math.Abs(x) < 1<<53 && (x != 0 || !math.Signbit(x)) {
		return strconv.AppendInt(b, int64(x), 10)
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
