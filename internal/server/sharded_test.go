package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	flex "flexmeasures"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/timeseries"
	"flexmeasures/internal/workload"
)

// zonedFleet is testFleet with a skewed zone stamped on most offers
// (and some left zone-less and some anonymous), so shard routing
// exercises all three key paths: zone, ID hash, round-robin.
func zonedFleet(t *testing.T, n, zones int) ([]*flexoffer.FlexOffer, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	offers, err := workload.Population(rng, n, 2, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range offers {
		if i%7 != 0 {
			f.ID = fmt.Sprintf("p-%04d", i)
		} else {
			f.ID = ""
		}
		if i%3 != 0 {
			f.Zone = fmt.Sprintf("z%02d", rng.Intn(zones))
		}
	}
	var buf bytes.Buffer
	if err := flexoffer.EncodeNDJSON(&buf, offers); err != nil {
		t.Fatal(err)
	}
	return offers, buf.Bytes()
}

// newShardedTestServer starts an httptest server around a fresh
// engine of the given shard count.
func newShardedTestServer(t *testing.T, shards int, opts Options, engOpts ...flex.Option) (*httptest.Server, *Server) {
	t.Helper()
	se := flex.NewSharded(shards, engOpts...)
	s := NewSharded(se, opts)
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		se.Close()
	})
	return srv, s
}

// TestShardedServerByteParity is the PR's acceptance criterion at the
// HTTP level: the same NDJSON fleet ingested into flexd with -shards
// 1, 2, 4 and 8 produces byte-identical /v1/schedule responses, all
// equal to the single-engine server and to the flexctl rendering path
// (BuildScheduleResponse + EncodeResponse over an engine pipeline).
func TestShardedServerByteParity(t *testing.T) {
	offers, ndjson := zonedFleet(t, 180, 5)
	const horizon, cap = 72, 55
	query := fmt.Sprintf("/v1/schedule?horizon=%d&cap=%d&est=3&max-group=24", horizon, cap)

	// The flexctl-equivalent reference bytes.
	ref := flex.New(flex.WithWorkers(1), flex.WithSafe(true))
	defer ref.Close()
	level := FlatTargetLevel(offers, horizon, -1)
	target := timeseries.Constant(0, horizon, level)
	res, err := ref.Pipeline(context.Background(), offers, target,
		flex.WithGrouping(flex.GroupParams{ESTTolerance: 3, TFTolerance: -1, MaxGroupSize: 24}),
		flex.WithPeakCap(cap))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := EncodeResponse(&want, BuildScheduleResponse(len(offers), res, target, horizon, level)); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 4, 8} {
		srv, _ := newShardedTestServer(t, shards, Options{}, flex.WithWorkers(2), flex.WithSafe(true))
		resp, body := post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shards=%d: ingest: %s: %s", shards, resp.Status, body)
		}
		resp, body = post(t, srv.URL+query, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shards=%d: schedule: %s: %s", shards, resp.Status, body)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("shards=%d: /v1/schedule bytes differ from the single-engine reference (%d vs %d bytes)",
				shards, len(body), want.Len())
		}
	}
}

// TestStreamScheduleResponse pins the streaming encoder to the
// one-shot encoder byte for byte, including the nil and empty
// disaggregated edge cases — the contract that lets handleSchedule
// stream without changing the wire format.
func TestStreamScheduleResponse(t *testing.T) {
	offers, _ := zonedFleet(t, 120, 4)
	eng := flex.New(flex.WithWorkers(2), flex.WithSafe(true))
	defer eng.Close()
	const horizon = 48
	level := FlatTargetLevel(offers, horizon, -1)
	target := timeseries.Constant(0, horizon, level)
	res, err := eng.Pipeline(context.Background(), offers, target)
	if err != nil {
		t.Fatal(err)
	}
	resp := BuildScheduleResponse(len(offers), res, target, horizon, level)

	// A body of more than three chunks: 120 groups of 12 assignments
	// with 24 wide, signed values each.
	rng := rand.New(rand.NewSource(23))
	large := make([][]flexoffer.Assignment, 120)
	for i := range large {
		large[i] = make([]flexoffer.Assignment, 12)
		for j := range large[i] {
			vals := make([]int64, 24)
			for k := range vals {
				vals[k] = rng.Int63n(2_000_000_000) - 1_000_000_000
			}
			large[i][j] = flexoffer.Assignment{Start: rng.Intn(1000) - 500, Values: vals}
		}
	}
	one := []flexoffer.Assignment{{Start: 1, Values: []int64{2}}}
	bare := func(d [][]flexoffer.Assignment) *ScheduleResponse {
		return &ScheduleResponse{Offers: 1, Load: SeriesJSON{Values: []int64{}}, Disaggregated: d}
	}
	cases := map[string]*ScheduleResponse{
		"full":                 resp,
		"nil":                  bare(nil),
		"empty":                bare([][]flexoffer.Assignment{}),
		"nil and empty groups": bare([][]flexoffer.Assignment{nil, one, {}, nil}),
		"nil and empty values": bare([][]flexoffer.Assignment{{{Start: 3}, {Start: 4, Values: []int64{}}}, one}),
		"extreme values": bare([][]flexoffer.Assignment{{
			{Start: math.MinInt, Values: []int64{math.MinInt64, math.MaxInt64, -1, 0, -987654321}},
			{Start: math.MaxInt, Values: []int64{-5}},
		}}),
		"more than three chunks": bare(large),
		"head edge cases": {Offers: 3, Aggregates: -1, Prosumers: math.MaxInt, Horizon: math.MinInt,
			TargetLevel: math.MinInt64, Imbalance: 12.375, PeakLoad: math.MaxInt64,
			Load: SeriesJSON{Start: -7}, AggregateAssignments: []flexoffer.Assignment{{Start: 2}}},
		"negative zero imbalance": {Imbalance: math.Copysign(0, -1), AggregateAssignments: []flexoffer.Assignment{}},
		"tiny imbalance":          {Imbalance: 1.5e-9},
		"huge imbalance":          {Imbalance: 3.25e22},
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := &ScheduleResponse{Imbalance: x}
		want := EncodeResponse(io.Discard, r)
		if got := StreamScheduleResponse(io.Discard, r); want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("imbalance %v: streamed error %v, one-shot error %v", x, got, want)
		}
	}
	for name, r := range cases {
		var oneShot bytes.Buffer
		var streamed flushCounter
		if err := EncodeResponse(&oneShot, r); err != nil {
			t.Fatal(err)
		}
		if err := StreamScheduleResponse(&streamed, r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(oneShot.Bytes(), streamed.Bytes()) {
			t.Errorf("%s: streamed bytes differ from one-shot encoding:\n got  %s\n want %s",
				name, streamed.Bytes(), oneShot.Bytes())
		}
		n := streamed.Len()
		if limit := (n+scheduleChunk-1)/scheduleChunk + 1; streamed.flushes > limit {
			t.Errorf("%s: %d flushes for %d bytes, want at most %d", name, streamed.flushes, n, limit)
		}
		if name == "more than three chunks" && n <= 3*scheduleChunk {
			t.Errorf("%s: body is only %d bytes", name, n)
		}
	}
}

// flushCounter is a bytes.Buffer that counts Flush calls.
type flushCounter struct {
	bytes.Buffer
	flushes int
}

func (f *flushCounter) Flush() { f.flushes++ }

// TestHealthzDraining pins the shutdown contract: MarkDraining flips
// /healthz to 503 while the data endpoints keep serving in-flight
// traffic.
func TestHealthzDraining(t *testing.T) {
	_, ndjson := zonedFleet(t, 30, 2)
	srv, s := newShardedTestServer(t, 2, Options{}, flex.WithWorkers(1))
	post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson))

	resp, body := get(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %s: %s", resp.Status, body)
	}
	s.MarkDraining()
	resp, body = get(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("healthz while draining: %s: %s, want 503 draining", resp.Status, body)
	}
	// Existing clients still get answers while the LB drains us.
	resp, _ = get(t, srv.URL+"/v1/offers")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("store size while draining: %s", resp.Status)
	}
}

// TestShardedMetricsLabels checks the per-shard metric series: the
// labeled gauges must be present for every shard and sum to the
// unlabeled totals.
func TestShardedMetricsLabels(t *testing.T) {
	_, ndjson := zonedFleet(t, 80, 4)
	srv, _ := newShardedTestServer(t, 4, Options{}, flex.WithWorkers(2))
	post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson))

	resp, body := get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", resp.Status)
	}
	text := string(body)
	if !strings.Contains(text, "flexd_offers_stored 80") {
		t.Fatalf("metrics missing unlabeled total:\n%s", text)
	}
	for _, series := range []string{"flexd_shard_offers_stored", "flexd_shard_ingest_records_total", "flexd_shard_pool_workers", "flexd_shard_pool_busy"} {
		for shard := 0; shard < 4; shard++ {
			want := fmt.Sprintf(`%s{shard="%d"}`, series, shard)
			if !strings.Contains(text, want) {
				t.Errorf("metrics missing %q", want)
			}
		}
	}
	// Per-shard stored counts sum to the total.
	sum := 0
	for _, line := range strings.Split(text, "\n") {
		var shard, n int
		if _, err := fmt.Sscanf(line, "flexd_shard_offers_stored{shard=\"%d\"} %d", &shard, &n); err == nil {
			sum += n
		}
	}
	if sum != 80 {
		t.Errorf("per-shard stored gauges sum to %d, want 80", sum)
	}
}

// TestShardedServerHammer drives one sharded server from 12 goroutines
// mixing ingest, schedule, aggregate and measures — the -race exercise
// for the HTTP layer over the shard store. Responses must always be
// well-formed (2xx or the documented 4xx), never torn.
func TestShardedServerHammer(t *testing.T) {
	srv, _ := newShardedTestServer(t, 4, Options{MaxInFlight: 64}, flex.WithWorkers(2), flex.WithSafe(true))
	record := func(g, i int) string {
		return fmt.Sprintf(`{"id":"g%d-p%d","zone":"z%d","earliestStart":%d,"latestStart":%d,"slices":[{"min":0,"max":4},{"min":1,"max":5}],"totalMin":1,"totalMax":9}`,
			g, i%15, i%5, i%30, i%30+3) + "\n"
	}
	const goroutines = 12
	const iters = 15
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				switch it % 4 {
				case 0:
					var batch strings.Builder
					for i := 0; i < 6; i++ {
						batch.WriteString(record(g, it*6+i))
					}
					resp, body := post(t, srv.URL+"/v1/offers", strings.NewReader(batch.String()))
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("goroutine %d iter %d: ingest %s: %s", g, it, resp.Status, body)
						return
					}
				case 1:
					resp, body := post(t, srv.URL+"/v1/schedule?horizon=40", nil)
					switch resp.StatusCode {
					case http.StatusOK:
						var sr ScheduleResponse
						if err := json.Unmarshal(body, &sr); err != nil {
							errs <- fmt.Errorf("goroutine %d iter %d: torn schedule response: %w", g, it, err)
							return
						}
					case http.StatusBadRequest: // empty store is fine early on
					default:
						errs <- fmt.Errorf("goroutine %d iter %d: schedule %s: %s", g, it, resp.Status, body)
						return
					}
				case 2:
					resp, body := post(t, srv.URL+"/v1/aggregate", nil)
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
						errs <- fmt.Errorf("goroutine %d iter %d: aggregate %s: %s", g, it, resp.Status, body)
						return
					}
				case 3:
					resp, body := get(t, srv.URL+"/v1/measures")
					switch resp.StatusCode {
					case http.StatusOK:
						var mr MeasuresResponse
						if err := json.Unmarshal(body, &mr); err != nil || len(mr.Set) != 8 {
							errs <- fmt.Errorf("goroutine %d iter %d: torn measures response: %v", g, it, err)
							return
						}
					case http.StatusBadRequest:
					default:
						errs <- fmt.Errorf("goroutine %d iter %d: measures %s: %s", g, it, resp.Status, body)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// measuresFleet is zonedFleet(n) with offers whose measures are
// undefined spliced in: zero totals (relative_area fails, so the cell
// and the set value are null) and mixed profiles (absolute_area and
// relative_area undefined), at the front, the back and every 97th
// position.
func measuresFleet(t *testing.T, n int) ([]*flexoffer.FlexOffer, []byte) {
	t.Helper()
	base, _ := zonedFleet(t, n, 5)
	special := func(i int) *flexoffer.FlexOffer {
		f := &flexoffer.FlexOffer{
			ID: fmt.Sprintf("u-%04d", i), EarliestStart: i % 11, LatestStart: i%11 + 3,
			Slices: []flexoffer.Slice{{Min: -2, Max: 2}, {Min: 0, Max: 1}},
		}
		if i%2 == 1 {
			f.Slices = []flexoffer.Slice{{Min: -3, Max: 4}, {Min: -1, Max: 2}}
			f.TotalMin, f.TotalMax = -2, 5
		}
		return f
	}
	var offers []*flexoffer.FlexOffer
	for i, f := range base {
		if i%97 == 0 {
			offers = append(offers, special(i))
		}
		offers = append(offers, f)
	}
	offers = append(offers, special(1))
	for _, f := range offers {
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := flexoffer.EncodeNDJSON(&buf, offers); err != nil {
		t.Fatal(err)
	}
	return offers, buf.Bytes()
}

// TestShardedServerMeasuresByteParity pins GET /v1/measures — evaluated
// block by block on the shard pools and streamed in offer order — byte
// for byte to the reference rendering EncodeResponse(
// BuildMeasuresResponse(...)) of a serial one-shard engine's table,
// for every norm and shard count, over fleets with undefined cells: a
// single offer, a fleet inside one evaluator block, and one spanning
// more blocks than the largest shard count that is not a multiple of
// the block size.
func TestShardedServerMeasuresByteParity(t *testing.T) {
	ref := flex.New(flex.WithWorkers(1))
	defer ref.Close()
	norms := map[string]flex.Norm{"l1": flex.L1, "l2": flex.L2, "linf": flex.LInf}
	single := []*flexoffer.FlexOffer{{ID: "only", EarliestStart: 1, LatestStart: 4,
		Slices: []flexoffer.Slice{{Min: -3, Max: 4}}, TotalMin: -3, TotalMax: 4}}
	var singleNDJSON bytes.Buffer
	if err := flexoffer.EncodeNDJSON(&singleNDJSON, single); err != nil {
		t.Fatal(err)
	}
	fleets := map[string]func() ([]*flexoffer.FlexOffer, []byte){
		"one offer":       func() ([]*flexoffer.FlexOffer, []byte) { return single, singleNDJSON.Bytes() },
		"within a block":  func() ([]*flexoffer.FlexOffer, []byte) { return measuresFleet(t, flex.MeasuresBlock/2) },
		"ragged 9 blocks": func() ([]*flexoffer.FlexOffer, []byte) { return measuresFleet(t, 8*flex.MeasuresBlock+40) },
	}
	for name, build := range fleets {
		offers, ndjson := build()
		if name == "ragged 9 blocks" && (len(offers)%flex.MeasuresBlock == 0 || len(offers) <= 8*flex.MeasuresBlock) {
			t.Fatalf("%s: %d offers do not span a ragged 9 blocks", name, len(offers))
		}
		want := make(map[string][]byte, len(norms))
		for q, norm := range norms {
			tab, err := ref.Measures(context.Background(), offers, flex.WithNorm(norm))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := EncodeResponse(&buf, BuildMeasuresResponse(tab)); err != nil {
				t.Fatal(err)
			}
			if name != "one offer" && !bytes.Contains(buf.Bytes(), []byte("null")) {
				t.Fatalf("%s norm=%s: reference has no undefined cell", name, q)
			}
			want[q] = buf.Bytes()
		}
		for _, shards := range []int{1, 2, 4, 8} {
			srv, _ := newShardedTestServer(t, shards, Options{}, flex.WithWorkers(2))
			resp, body := post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s shards=%d: ingest: %s: %s", name, shards, resp.Status, body)
			}
			for q := range norms {
				resp, body := get(t, srv.URL+"/v1/measures?norm="+q)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s shards=%d norm=%s: %s: %s", name, shards, q, resp.Status, body)
				}
				if !bytes.Equal(body, want[q]) {
					t.Errorf("%s shards=%d norm=%s: /v1/measures bytes differ from the reference (%d vs %d bytes)",
						name, shards, q, len(body), len(want[q]))
				}
			}
			srv.Close()
		}
	}
}

// TestMeasuresConcurrentRequests pins the recycled measures buffers
// (evaluator blocks, encoded blocks, float memos) under concurrent
// requests: GET /v1/measures from several goroutines at once, under
// different norms, over a fleet of many blocks, must each answer the
// reference bytes of its norm.
func TestMeasuresConcurrentRequests(t *testing.T) {
	offers, ndjson := measuresFleet(t, 5*flex.MeasuresBlock+17)
	ref := flex.New(flex.WithWorkers(1))
	defer ref.Close()
	norms := []string{"l1", "l2", "linf"}
	want := make(map[string][]byte, len(norms))
	for q, norm := range map[string]flex.Norm{"l1": flex.L1, "l2": flex.L2, "linf": flex.LInf} {
		tab, err := ref.Measures(context.Background(), offers, flex.WithNorm(norm))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeResponse(&buf, BuildMeasuresResponse(tab)); err != nil {
			t.Fatal(err)
		}
		want[q] = buf.Bytes()
	}
	srv, _ := newShardedTestServer(t, 2, Options{}, flex.WithWorkers(2))
	if resp, body := post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s: %s", resp.Status, body)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				q := norms[(g+r)%len(norms)]
				resp, err := http.Get(srv.URL + "/v1/measures?norm=" + q)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, want[q]) {
					t.Errorf("goroutine %d norm=%s: %s, %v: body differs from the reference", g, q, resp.Status, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMeasuresWideTimeFlexibility pins GET /v1/measures on hostile
// input: one valid offer with latestStart = 2^40 among an ordinary
// fleet. Its union area takes O(slices), not 2^40 column visits, so the
// request answers 200 at once with exactly the reference rendering.
func TestMeasuresWideTimeFlexibility(t *testing.T) {
	offers, _ := zonedFleet(t, 40, 3)
	offers = append(offers, &flexoffer.FlexOffer{ID: "wide", EarliestStart: 2, LatestStart: 1 << 40,
		Slices: []flexoffer.Slice{{Min: -1, Max: 2}, {Min: -4, Max: -1}, {Min: -3, Max: 1}}, TotalMin: -8, TotalMax: 2})
	var ndjson bytes.Buffer
	if err := flexoffer.EncodeNDJSON(&ndjson, offers); err != nil {
		t.Fatal(err)
	}
	ref := flex.New(flex.WithWorkers(1))
	defer ref.Close()
	tab, err := ref.Measures(context.Background(), offers)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := EncodeResponse(&want, BuildMeasuresResponse(tab)); err != nil {
		t.Fatal(err)
	}
	srv, _ := newShardedTestServer(t, 2, Options{}, flex.WithWorkers(2))
	if resp, body := post(t, srv.URL+"/v1/offers", &ndjson); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s: %s", resp.Status, body)
	}
	resp, body := get(t, srv.URL+"/v1/measures")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measures: %s: %s", resp.Status, body)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("/v1/measures bytes differ from the reference:\n got  %.300s\n want %.300s", body, want.Bytes())
	}
}

// TestMeasuresCancelledBeforeOutput pins the status contract of the
// streamed GET /v1/measures: a request whose evaluation fails before
// any block is written still answers 422 with an error body.
func TestMeasuresCancelledBeforeOutput(t *testing.T) {
	_, ndjson := zonedFleet(t, 40, 3)
	srv, s := newShardedTestServer(t, 2, Options{}, flex.WithWorkers(2))
	post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/measures", nil).WithContext(ctx))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("cancelled measures: status %d, want 422: %s", rec.Code, rec.Body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("cancelled measures: body %q is not an error response (%v)", rec.Body, err)
	}
}

// lateCancel is a request context that is found cancelled from its
// second Err call on, and never closes Done: the measures evaluation
// starts, streams every block, and only its final check sees the
// cancellation — a request cancelled mid-body, without a race against
// the evaluator's workers.
type lateCancel struct {
	context.Context
	calls atomic.Int32
}

func (c *lateCancel) Done() <-chan struct{} { return nil }

func (c *lateCancel) Err() error {
	if c.calls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestMeasuresCancelledMidBody pins the other half of the contract:
// once the first block is out the status is committed, so a request
// cancelled afterwards keeps its 200 and its body just ends — every
// row written, no "set", no closing brace.
func TestMeasuresCancelledMidBody(t *testing.T) {
	offers, ndjson := zonedFleet(t, 3*flex.MeasuresBlock+5, 3)
	srv, s := newShardedTestServer(t, 2, Options{}, flex.WithWorkers(2))
	post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson))
	ref := flex.New(flex.WithWorkers(1))
	defer ref.Close()
	tab, err := ref.Measures(context.Background(), offers)
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := EncodeResponse(&full, BuildMeasuresResponse(tab)); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	ctx := &lateCancel{Context: context.Background()}
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/measures", nil).WithContext(ctx))
	if rec.Code != http.StatusOK {
		t.Fatalf("cancelled mid-body: status %d, want 200: %s", rec.Code, rec.Body)
	}
	rows := full.Bytes()[:bytes.LastIndex(full.Bytes(), []byte(`],"set":`))]
	if !bytes.Equal(rec.Body.Bytes(), rows) {
		t.Errorf("cancelled mid-body: body is not the full body cut before its set row:\n got  %.200s\n want %.200s", rec.Body, rows)
	}
}
