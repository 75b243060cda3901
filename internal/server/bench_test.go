package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	flex "flexmeasures"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/workload"
)

// BenchmarkMeasuresEndpoint50k is one GET /v1/measures over 50k stored
// offers on a two-shard server behind httptest, body drained: the
// whole handler — evaluation, encoding and the streamed write — per
// request, with its bytes and allocations.
func BenchmarkMeasuresEndpoint50k(b *testing.B) {
	offers, err := workload.Population(rand.New(rand.NewSource(99)), 50000, 3, workload.DefaultMix())
	if err != nil {
		b.Fatal(err)
	}
	for i, f := range offers {
		f.ID = fmt.Sprintf("p-%05d", i)
	}
	srv := benchServer(b, offers, flex.NewSharded(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(srv.URL + "/v1/measures")
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("measures: %s, %d bytes, %v", resp.Status, n, err)
		}
		b.SetBytes(n)
	}
}

// BenchmarkIngestEndpoint50k is one POST /v1/offers of 1000
// re-submissions under existing IDs to a 50k-offer two-shard server
// behind httptest: the NDJSON decode, the store's replacing apply and
// the response, per request, with its bytes and allocations. The store
// size stays fixed, as in a steady stream of re-submitted offers.
func BenchmarkIngestEndpoint50k(b *testing.B) {
	offers, err := workload.Population(rand.New(rand.NewSource(99)), 50000, 3, workload.DefaultMix())
	if err != nil {
		b.Fatal(err)
	}
	for i, f := range offers {
		f.ID = fmt.Sprintf("p-%05d", i)
	}
	srv := benchServer(b, offers, flex.NewSharded(2))
	rng := rand.New(rand.NewSource(100))
	resubmits, err := workload.Population(rng, 1000, 3, workload.DefaultMix())
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range resubmits {
		f.ID = offers[rng.Intn(len(offers))].ID
	}
	var body bytes.Buffer
	if err := flexoffer.EncodeNDJSON(&body, resubmits); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(srv.URL+"/v1/offers", "application/x-ndjson", bytes.NewReader(body.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("ingest: %s, %v", resp.Status, err)
		}
	}
}

// benchServer serves a fresh engine se behind httptest with the offers
// ingested; the engine and server close when the benchmark ends.
func benchServer(b *testing.B, offers []*flexoffer.FlexOffer, se *flex.Engine) *httptest.Server {
	b.Helper()
	b.Cleanup(se.Close)
	srv := httptest.NewServer(NewSharded(se, Options{}))
	b.Cleanup(srv.Close)
	postNDJSON(b, srv.URL, offers)
	return srv
}

// postNDJSON ingests the offers with one POST /v1/offers.
func postNDJSON(b *testing.B, url string, offers []*flexoffer.FlexOffer) {
	b.Helper()
	var ndjson bytes.Buffer
	if err := flexoffer.EncodeNDJSON(&ndjson, offers); err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/offers", "application/x-ndjson", &ndjson)
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("ingest: %s", resp.Status)
	}
}

// BenchmarkScheduleEndpoint50k is one POST /v1/schedule over 50k
// stored offers with dense earliest starts on a two-shard server with
// safe aggregation, body drained, with incremental scheduling on (as
// flexd runs by default) and off. Before every request, outside the
// timer, 25 offers are re-submitted under existing IDs — the same
// sequence for both sub-benchmarks: on a dense fleet that shifts the
// packing behind them, so most groups are re-aggregated and every
// incremental request is a full run — grouping, aggregation,
// scheduling, disaggregation and the streamed encode, with its bytes
// and allocations. inc=on must never be slower than inc=off.
func BenchmarkScheduleEndpoint50k(b *testing.B) {
	offers, err := workload.Population(rand.New(rand.NewSource(99)), 50000, 2, workload.DefaultMix())
	if err != nil {
		b.Fatal(err)
	}
	horizon := 0
	var expected int64
	for i, f := range offers {
		f.ID = fmt.Sprintf("p-%05d", i)
		horizon = max(horizon, f.LatestStart+f.NumSlices())
		expected += (f.TotalMin + f.TotalMax) / 2
	}
	horizon += workload.SlotsPerDay
	for _, mode := range []struct {
		name string
		inc  bool
	}{{"inc=on", true}, {"inc=off", false}} {
		b.Run(mode.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(100))
			srv := benchServer(b, offers, flex.NewSharded(2, flex.WithSafe(true), flex.WithIncremental(mode.inc)))
			query := fmt.Sprintf("%s/v1/schedule?horizon=%d&target=%d&est=2&max-group=64",
				srv.URL, horizon, expected/int64(horizon))
			schedule := func() int64 {
				resp, err := http.Post(query, "", nil)
				if err != nil {
					b.Fatal(err)
				}
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("schedule: %s, %d bytes, %v", resp.Status, n, err)
				}
				return n
			}
			schedule() // warm the incremental cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				churn, err := workload.Population(rng, 25, 2, workload.DefaultMix())
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range churn {
					f.ID = fmt.Sprintf("p-%05d", rng.Intn(len(offers)))
				}
				postNDJSON(b, srv.URL, churn)
				b.StartTimer()
				b.SetBytes(schedule())
			}
		})
	}
}
