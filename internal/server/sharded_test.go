package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

	cases := map[string]*ScheduleResponse{
		"full":  resp,
		"nil":   {Offers: 1, Load: SeriesJSON{Values: []int64{}}},
		"empty": {Offers: 1, Load: SeriesJSON{Values: []int64{}}, Disaggregated: [][]flexoffer.Assignment{}},
	}
	for name, r := range cases {
		var oneShot, streamed bytes.Buffer
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
	}
}

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
				switch it % 3 {
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
