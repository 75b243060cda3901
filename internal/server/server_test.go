package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	flex "flexmeasures"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/timeseries"
	"flexmeasures/internal/workload"
)

// testFleet builds a reproducible population and its NDJSON encoding.
// IDs are rewritten to be unique: the workload generator's random IDs
// can collide, and ingest dedups by ID, which would make the stored
// fleet diverge from the encoded one. Dedup itself is tested
// explicitly (TestIngestDedupByID).
func testFleet(t *testing.T, n int) ([]*flexoffer.FlexOffer, []byte) {
	t.Helper()
	offers, err := workload.Population(rand.New(rand.NewSource(31)), n, 2, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range offers {
		f.ID = fmt.Sprintf("p-%04d", i)
	}
	var buf bytes.Buffer
	if err := flexoffer.EncodeNDJSON(&buf, offers); err != nil {
		t.Fatal(err)
	}
	return offers, buf.Bytes()
}

func post(t *testing.T, url string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestIngestAndStore(t *testing.T) {
	offers, ndjson := testFleet(t, 200)
	srv, _ := newShardedTestServer(t, 1, Options{}, flex.WithWorkers(3))

	resp, body := post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s: %s", resp.Status, body)
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Ingested != len(offers) || ir.Replaced != 0 || ir.Stored != len(offers) {
		t.Fatalf("ingested %d replaced %d stored %d, want %d/0/%d",
			ir.Ingested, ir.Replaced, ir.Stored, len(offers), len(offers))
	}

	// Re-posting the same batch replaces every offer by ID instead of
	// double-counting the fleet (last write wins).
	resp, body = post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second ingest: %s: %s", resp.Status, body)
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Replaced != len(offers) || ir.Stored != len(offers) {
		t.Fatalf("second batch replaced %d stored %d, want %d/%d",
			ir.Replaced, ir.Stored, len(offers), len(offers))
	}

	resp, body = get(t, srv.URL+"/v1/offers")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("store size: %s", resp.Status)
	}
	var sr StoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Stored != len(offers) {
		t.Fatalf("store reports %d, want %d", sr.Stored, len(offers))
	}

	// Reset empties it.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/offers", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("reset: %s", dresp.Status)
	}
	_, body = get(t, srv.URL+"/v1/offers")
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Stored != 0 {
		t.Fatalf("store reports %d after reset, want 0", sr.Stored)
	}

	// Reset clears the ID index too: the same batch ingests fresh.
	resp, body = post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reset ingest: %s: %s", resp.Status, body)
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Replaced != 0 || ir.Stored != len(offers) {
		t.Fatalf("post-reset batch replaced %d stored %d, want 0/%d", ir.Replaced, ir.Stored, len(offers))
	}
}

// TestIngestDedupByID pins the per-prosumer identity contract of the
// offer store: a non-empty ID identifies the prosumer's current offer,
// re-submissions replace it (last write wins, within and across
// batches), and offers without an ID always append.
func TestIngestDedupByID(t *testing.T) {
	srv, _ := newShardedTestServer(t, 1, Options{}, flex.WithWorkers(2))
	rec := func(id string, max int64) string {
		line := fmt.Sprintf(`{"earliestStart":0,"latestStart":2,"slices":[{"min":0,"max":%d}],"totalMin":0,"totalMax":%d}`, max, max)
		if id != "" {
			line = fmt.Sprintf(`{"id":%q,"earliestStart":0,"latestStart":2,"slices":[{"min":0,"max":%d}],"totalMin":0,"totalMax":%d}`, id, max, max)
		}
		return line + "\n"
	}
	var ir IngestResponse

	// Within one batch: a appears twice, the later record wins; the
	// anonymous record appends.
	batch1 := rec("a", 1) + rec("b", 2) + rec("", 3) + rec("a", 4)
	resp, body := post(t, srv.URL+"/v1/offers", strings.NewReader(batch1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch1: %s: %s", resp.Status, body)
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Ingested != 4 || ir.Replaced != 1 || ir.Stored != 3 {
		t.Fatalf("batch1 = %+v, want ingested 4 replaced 1 stored 3", ir)
	}

	// Across batches: b updates, c is new, another anonymous appends.
	batch2 := rec("b", 9) + rec("c", 5) + rec("", 6)
	resp, body = post(t, srv.URL+"/v1/offers", strings.NewReader(batch2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch2: %s: %s", resp.Status, body)
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Ingested != 3 || ir.Replaced != 1 || ir.Stored != 5 {
		t.Fatalf("batch2 = %+v, want ingested 3 replaced 1 stored 5", ir)
	}
}

// TestStoreLastWriteWins checks the store at the unit level: replaced
// content is the latest submission, and a snapshot taken before a
// replacement still reads the old value (copy-on-write, so concurrent
// readers never observe mutation).
func TestStoreLastWriteWins(t *testing.T) {
	eng := flex.New(flex.WithWorkers(1))
	defer eng.Close()
	s := NewSharded(eng, Options{})
	mk := func(id string, max int64) *flexoffer.FlexOffer {
		f, err := flexoffer.New(0, 2, flexoffer.Slice{Min: 0, Max: max})
		if err != nil {
			t.Fatal(err)
		}
		f.ID = id
		return f
	}
	s.store(context.Background(), []*flexoffer.FlexOffer{mk("x", 3), mk("y", 1)})
	before := s.snapshot()
	if replaced, stored, err := s.store(context.Background(), []*flexoffer.FlexOffer{mk("x", 7)}); replaced != 1 || stored != 2 || err != nil {
		t.Fatalf("replacement reported (%d, %d, %v), want (1, 2, nil)", replaced, stored, err)
	}
	after := s.snapshot()
	if before[0].Slices[0].Max != 3 {
		t.Fatalf("pre-replacement snapshot mutated: x max = %d, want 3", before[0].Slices[0].Max)
	}
	if after[0].Slices[0].Max != 7 || after[0].ID != "x" {
		t.Fatalf("replacement not applied: got %+v", after[0])
	}
	if len(after) != 2 || after[1].ID != "y" {
		t.Fatalf("unrelated offers disturbed: %+v", after)
	}
}

func TestIngestMalformed(t *testing.T) {
	_, ndjson := testFleet(t, 50)
	bad := append([]byte{}, ndjson...)
	bad = append(bad, []byte("garbage\n")...)
	bad = append(bad, ndjson...)

	srv, _ := newShardedTestServer(t, 1, Options{}, flex.WithWorkers(2))
	resp, body := post(t, srv.URL+"/v1/offers?mode=collect", bytes.NewReader(bad))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed ingest: %s, want 400", resp.Status)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Records) != 1 || er.Records[0].Record != 50 {
		t.Fatalf("error records = %+v, want one failure at record 50", er.Records)
	}

	// A rejected batch must not partially populate the store.
	_, body = get(t, srv.URL+"/v1/offers")
	var sr StoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Stored != 0 {
		t.Fatalf("store has %d offers after a rejected batch, want 0", sr.Stored)
	}
}

func TestAggregateEndpoint(t *testing.T) {
	offers, ndjson := testFleet(t, 150)
	srv, _ := newShardedTestServer(t, 1, Options{}, flex.WithWorkers(3))
	post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson))

	resp, body := post(t, srv.URL+"/v1/aggregate?est=3&max-group=24", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate: %s: %s", resp.Status, body)
	}
	var ar AggregateResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	ref := flex.New(flex.WithWorkers(1))
	defer ref.Close()
	want, err := ref.Aggregate(context.Background(), offers,
		flex.WithGrouping(flex.GroupParams{ESTTolerance: 3, TFTolerance: -1, MaxGroupSize: 24}))
	if err != nil {
		t.Fatal(err)
	}
	if ar.Offers != len(offers) || ar.Groups != len(want) {
		t.Fatalf("aggregate reports %d offers %d groups, want %d offers %d groups",
			ar.Offers, ar.Groups, len(offers), len(want))
	}
	for i, info := range ar.Aggregates {
		if !info.Offer.Equal(want[i].Offer) {
			t.Fatalf("aggregate %d offer diverged from AggregateAll", i)
		}
		if info.Constituents != len(want[i].Constituents) {
			t.Fatalf("aggregate %d reports %d constituents, want %d", i, info.Constituents, len(want[i].Constituents))
		}
	}

	// Invalid ?mode is rejected, same contract as ingest.
	resp, _ = post(t, srv.URL+"/v1/aggregate?mode=bogus", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad mode: %s, want 400", resp.Status)
	}
}

// TestScheduleEndpointEquivalence is the acceptance criterion at the
// server level: the HTTP schedule over ingested offers equals the
// engine pipeline over the same offers, byte for byte.
func TestScheduleEndpointEquivalence(t *testing.T) {
	offers, ndjson := testFleet(t, 200)
	srv, _ := newShardedTestServer(t, 1, Options{}, flex.WithWorkers(3), flex.WithSafe(true))
	post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson))

	const horizon, cap = 72, 55
	resp, body := post(t, fmt.Sprintf("%s/v1/schedule?horizon=%d&cap=%d", srv.URL, horizon, cap), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %s: %s", resp.Status, body)
	}

	// The reference run: a second engine with the same options, the
	// shared wire builder, the shared encoder.
	ref := flex.New(flex.WithWorkers(1), flex.WithSafe(true))
	defer ref.Close()
	level := FlatTargetLevel(offers, horizon, -1)
	target := timeseries.Constant(0, horizon, level)
	res, err := ref.Pipeline(context.Background(), offers, target,
		flex.WithGrouping(flex.GroupParams{ESTTolerance: 2, TFTolerance: -1}), flex.WithPeakCap(cap))
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	if err := EncodeResponse(&wantBuf, BuildScheduleResponse(len(offers), res, target, horizon, level)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, wantBuf.Bytes()) {
		t.Fatalf("HTTP schedule response is not bit-identical to the engine pipeline:\n got %d bytes\nwant %d bytes", len(body), wantBuf.Len())
	}

	// The disaggregated assignments must reproduce the load slot-wise.
	var sched ScheduleResponse
	if err := json.Unmarshal(body, &sched); err != nil {
		t.Fatal(err)
	}
	acc := map[int]int64{}
	for _, parts := range sched.Disaggregated {
		for _, a := range parts {
			for i, v := range a.Values {
				acc[a.Start+i] += v
			}
		}
	}
	for i, v := range sched.Load.Values {
		if acc[sched.Load.Start+i] != v {
			t.Fatalf("slot %d: disaggregated sum %d != load %d", i, acc[sched.Load.Start+i], v)
		}
		delete(acc, sched.Load.Start+i)
	}
	for slot, v := range acc {
		if v != 0 {
			t.Fatalf("slot %d has %d energy outside the load series", slot, v)
		}
	}
}

func TestScheduleNoOffers(t *testing.T) {
	srv, _ := newShardedTestServer(t, 1, Options{}, flex.WithWorkers(1))
	resp, _ := post(t, srv.URL+"/v1/schedule", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("schedule with empty store: %s, want 400", resp.Status)
	}
	resp, _ = post(t, srv.URL+"/v1/schedule?horizon=abc", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("schedule with bad horizon: %s, want 400", resp.Status)
	}
}

func TestMeasuresEndpoint(t *testing.T) {
	offers, ndjson := testFleet(t, 60)
	srv, _ := newShardedTestServer(t, 1, Options{}, flex.WithWorkers(2))
	post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson))

	resp, body := get(t, srv.URL+"/v1/measures?norm=l2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measures: %s: %s", resp.Status, body)
	}
	// NaN cells must arrive as null, so generic JSON decoding works.
	var mr struct {
		Names  []string   `json:"names"`
		Values [][]any    `json:"values"`
		Set    []*float64 `json:"set"`
	}
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Names) != 8 {
		t.Fatalf("%d measure names, want 8", len(mr.Names))
	}
	if len(mr.Values) != len(offers) {
		t.Fatalf("%d value rows, want %d", len(mr.Values), len(offers))
	}
	resp, _ = get(t, srv.URL+"/v1/measures?norm=l7")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad norm: %s, want 400", resp.Status)
	}
}

// TestMaxInFlightGate pins the backpressure contract: with a gate of
// 1, a request arriving while another is in flight is rejected with
// 429 immediately.
func TestMaxInFlightGate(t *testing.T) {
	srv, _ := newShardedTestServer(t, 1, Options{MaxInFlight: 1}, flex.WithWorkers(1))

	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/offers", "application/x-ndjson", pr)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Feed one record without closing so the first request holds the
	// gate while we probe with a second one.
	good := `{"earliestStart":0,"latestStart":2,"slices":[{"min":1,"max":3}],"totalMin":1,"totalMax":3}` + "\n"
	if _, err := pw.Write([]byte(good)); err != nil {
		t.Fatal(err)
	}

	var rejected bool
	for i := 0; i < 100; i++ {
		resp, _ := post(t, srv.URL+"/v1/schedule", nil)
		if resp.StatusCode == http.StatusTooManyRequests {
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Error("429 without Retry-After")
			}
			rejected = true
			break
		}
	}
	pw.Close()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !rejected {
		t.Fatal("gate of 1 never produced a 429 while a request was in flight")
	}

	// After the gate drains, requests flow again.
	resp, body := get(t, srv.URL+"/v1/offers")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("store size after gate drained: %s: %s", resp.Status, body)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ndjson := testFleet(t, 40)
	srv, _ := newShardedTestServer(t, 1, Options{}, flex.WithWorkers(2))
	post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson))

	resp, body := get(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %s: %s", resp.Status, body)
	}

	resp, body = get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", resp.Status)
	}
	text := string(body)
	for _, want := range []string{
		`flexd_requests_total{path="/v1/offers"} 1`,
		"flexd_ingest_records_total 40",
		"flexd_offers_stored 40",
		"flexd_pool_workers 2",
		"flexd_requests_rejected_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
	if !reflect.DeepEqual(resp.Header["Content-Type"], []string{"text/plain; version=0.0.4; charset=utf-8"}) {
		t.Errorf("metrics content type = %v", resp.Header["Content-Type"])
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, _ := newShardedTestServer(t, 1, Options{}, flex.WithWorkers(1))
	resp, _ := get(t, srv.URL+"/v1/aggregate")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/aggregate: %s, want 405", resp.Status)
	}
}

// TestRequestLatencyHistograms checks the flexd_request_seconds
// histogram: after a successful ingest, a schedule and a failing
// schedule (no-offers 400 after a reset), /metrics must expose one
// histogram per observed (path, code) pair with coherent bucket,
// sum and count lines.
func TestRequestLatencyHistograms(t *testing.T) {
	_, ndjson := testFleet(t, 40)
	srv, _ := newShardedTestServer(t, 1, Options{}, flex.WithWorkers(2), flex.WithSafe(true))

	resp, body := post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s: %s", resp.Status, body)
	}
	resp, body = post(t, srv.URL+"/v1/schedule?horizon=96", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %s: %s", resp.Status, body)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/offers", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("reset: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	resp, _ = post(t, srv.URL+"/v1/schedule?horizon=96", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty schedule status = %s, want 400", resp.Status)
	}

	_, metricsBody := get(t, srv.URL+"/metrics")
	text := string(metricsBody)
	for _, want := range []string{
		// 2: the ingest POST and the reset DELETE share the route.
		`flexd_request_seconds_count{path="/v1/offers",code="200"} 2`,
		`flexd_request_seconds_count{path="/v1/schedule",code="200"} 1`,
		`flexd_request_seconds_count{path="/v1/schedule",code="400"} 1`,
		`flexd_request_seconds_bucket{path="/v1/schedule",code="200",le="+Inf"} 1`,
		`flexd_request_seconds_bucket{path="/v1/schedule",code="200",le="60"} 1`,
		"# TYPE flexd_request_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Sum must be positive for the served schedule.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `flexd_request_seconds_sum{path="/v1/schedule",code="200"}`) {
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v); err != nil || v <= 0 {
				t.Errorf("schedule latency sum = %q (parsed %g, err %v), want > 0", line, v, err)
			}
		}
	}
}
