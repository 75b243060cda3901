package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	flex "flexmeasures"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/server"
	"flexmeasures/internal/workload"
)

// TestFlexdE2E is the PR's acceptance criterion, end to end: the same
// population is (a) ingested into a flexd server as NDJSON and
// scheduled over HTTP, and (b) written to disk and run through
// `flexctl schedule -pipeline -json`. The two response bodies must be
// bit-identical — same aggregates, same assignments, same load, same
// bytes — proving the service serves exactly what the batch CLI
// computes. CI runs this as the flexd smoke test.
func TestFlexdE2E(t *testing.T) {
	offers, err := workload.Population(rand.New(rand.NewSource(77)), 300, 2, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}

	// Side (a): the service. Engine options mirror what cmd/flexd
	// builds by default (-safe=true), plus a pool.
	eng := flex.New(flex.WithWorkers(4), flex.WithSafe(true))
	defer eng.Close()
	srv := httptest.NewServer(server.NewSharded(eng, server.Options{}))
	defer srv.Close()

	var ndjson bytes.Buffer
	if err := flexoffer.EncodeNDJSON(&ndjson, offers); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/offers", "application/x-ndjson", &ndjson)
	if err != nil {
		t.Fatal(err)
	}
	ingestBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s: %s", resp.Status, ingestBody)
	}

	const horizon, cap, est, maxGroup = 96, 60, 3, 32
	url := fmt.Sprintf("%s/v1/schedule?horizon=%d&cap=%d&est=%d&max-group=%d",
		srv.URL, horizon, cap, est, maxGroup)
	resp, err = http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	httpBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %s: %s", resp.Status, httpBody)
	}

	// Side (b): the CLI on the same offers, same parameters.
	path := filepath.Join(t.TempDir(), "offers.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := flexoffer.Encode(f, offers); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var cliBody bytes.Buffer
	err = run([]string{"schedule", "-pipeline", "-json",
		fmt.Sprintf("-horizon=%d", horizon), fmt.Sprintf("-cap=%d", cap),
		fmt.Sprintf("-est=%d", est), fmt.Sprintf("-max-group=%d", maxGroup),
		"-workers=2", path}, &cliBody)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(httpBody, cliBody.Bytes()) {
		t.Fatalf("flexd response is not bit-identical to flexctl -json:\nHTTP (%d bytes): %.200s\nCLI  (%d bytes): %.200s",
			len(httpBody), httpBody, cliBody.Len(), cliBody.Bytes())
	}
}

// TestFlexdShardedE2E extends the acceptance criterion to multi-shard
// serving: the same zoned population is ingested into a single-engine
// flexd, a 4-shard flexd, and run through `flexctl schedule -pipeline
// -json -shards 4`. All three /v1/schedule bodies must be
// bit-identical — the shard count changes where the work runs, never a
// byte of the answer. CI runs this as the multi-shard smoke test.
func TestFlexdShardedE2E(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	offers, err := workload.Population(rng, 300, 2, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range offers {
		if i%4 != 0 {
			f.Zone = fmt.Sprintf("z%02d", rng.Intn(6))
		}
	}
	var ndjson bytes.Buffer
	if err := flexoffer.EncodeNDJSON(&ndjson, offers); err != nil {
		t.Fatal(err)
	}

	const horizon, cap, est, maxGroup = 96, 60, 3, 32
	query := fmt.Sprintf("/v1/schedule?horizon=%d&cap=%d&est=%d&max-group=%d", horizon, cap, est, maxGroup)
	schedule := func(shards int) []byte {
		t.Helper()
		se := flex.NewSharded(shards, flex.WithWorkers(2), flex.WithSafe(true))
		defer se.Close()
		srv := httptest.NewServer(server.NewSharded(se, server.Options{}))
		defer srv.Close()
		resp, err := http.Post(srv.URL+"/v1/offers", "application/x-ndjson", bytes.NewReader(ndjson.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shards=%d: ingest: %s: %s", shards, resp.Status, body)
		}
		resp, err = http.Post(srv.URL+query, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shards=%d: schedule: %s: %s", shards, resp.Status, body)
		}
		return body
	}

	single := schedule(1)
	sharded := schedule(4)
	if !bytes.Equal(single, sharded) {
		t.Fatalf("-shards 4 response is not bit-identical to -shards 1:\n1 shard  (%d bytes): %.200s\n4 shards (%d bytes): %.200s",
			len(single), single, len(sharded), sharded)
	}

	path := filepath.Join(t.TempDir(), "offers.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := flexoffer.Encode(f, offers); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var cliBody bytes.Buffer
	err = run([]string{"schedule", "-pipeline", "-json", "-shards=4",
		fmt.Sprintf("-horizon=%d", horizon), fmt.Sprintf("-cap=%d", cap),
		fmt.Sprintf("-est=%d", est), fmt.Sprintf("-max-group=%d", maxGroup),
		"-workers=2", path}, &cliBody)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(single, cliBody.Bytes()) {
		t.Fatalf("flexctl -shards 4 output is not bit-identical to flexd:\nHTTP (%d bytes): %.200s\nCLI  (%d bytes): %.200s",
			len(single), single, cliBody.Len(), cliBody.Bytes())
	}
}
