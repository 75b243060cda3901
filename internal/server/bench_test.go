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
	var ndjson bytes.Buffer
	if err := flexoffer.EncodeNDJSON(&ndjson, offers); err != nil {
		b.Fatal(err)
	}
	se := flex.NewSharded(2)
	defer se.Close()
	srv := httptest.NewServer(NewSharded(se, Options{}))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/offers", "application/x-ndjson", &ndjson)
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("ingest: %s", resp.Status)
	}
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
