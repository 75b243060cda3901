package server

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	flex "flexmeasures"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/shard"
	"flexmeasures/internal/timeseries"
	"flexmeasures/internal/workload"
)

// resubmit returns n fresh offers under IDs drawn from offers, each
// kept in its original offer's EST cluster.
func resubmit(t *testing.T, rng *rand.Rand, offers []*flexoffer.FlexOffer, n int) []*flexoffer.FlexOffer {
	t.Helper()
	repl, err := workload.Population(rng, n, 2, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range repl {
		old := offers[rng.Intn(len(offers))]
		f.ID = old.ID
		f.LatestStart += old.EarliestStart - f.EarliestStart
		f.EarliestStart = old.EarliestStart
	}
	return repl
}

// TestStreamScheduleReuseMatchesEncoding pins the encoded-group cache
// at the encoder: over incremental pipeline results under churn, a
// store reset, a target change and a cap change, streamSchedule fed
// the previous body — or one two rounds old — writes exactly
// StreamScheduleResponse's bytes, and an unchanged second run copies
// every group instead of encoding it.
func TestStreamScheduleReuseMatchesEncoding(t *testing.T) {
	offers, _ := incrementalFleet(t, 300, 6, 12)
	rng := rand.New(rand.NewSource(61))
	se := flex.NewSharded(2, flex.WithWorkers(2), flex.WithSafe(true), flex.WithIncremental(true),
		flex.WithGrouping(flex.GroupParams{ESTTolerance: 2, TFTolerance: -1, MaxGroupSize: 16}))
	defer se.Close()
	stores := shard.NewStores(shard.Router{Shards: 2})
	stores.Add(offers)
	var prev, older *encodedGroups
	for round := 0; round < 12; round++ {
		level, opts := int64(40), []flex.Option(nil)
		switch round {
		case 4:
			stores.Reset()
			se.InvalidateIncremental()
			stores.Add(offers)
		case 6:
			level = 55
		case 8:
			opts = append(opts, flex.WithPeakCap(120))
		default:
			if round%2 == 1 {
				stores.Add(resubmit(t, rng, offers, 3))
			}
		}
		parts := stores.Snapshot()
		target := timeseries.Constant(0, 120, level)
		res, err := se.PipelineRouted(context.Background(), parts, target, opts...)
		if err != nil {
			t.Fatal(err)
		}
		resp := BuildScheduleResponse(stores.Len(), res, target, 120, level)
		var want bytes.Buffer
		if err := StreamScheduleResponse(&want, resp); err != nil {
			t.Fatal(err)
		}
		for _, base := range []*encodedGroups{older, prev} {
			var got bytes.Buffer
			if _, _, err := streamSchedule(&got, resp, base, false); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("round %d: body from a cached encoding differs from StreamScheduleResponse", round)
			}
		}
		var got bytes.Buffer
		next, _, err := streamSchedule(&got, resp, prev, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("round %d: kept body differs from StreamScheduleResponse", round)
		}
		older, prev = prev, next

		// The same schedule again: every group's disaggregation is
		// carried over, so every group's JSON is copied.
		res, err = se.PipelineRouted(context.Background(), parts, target, opts...)
		if err != nil {
			t.Fatal(err)
		}
		resp = BuildScheduleResponse(stores.Len(), res, target, 120, level)
		got.Reset()
		next, reused, err := streamSchedule(&got, resp, prev, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("round %d: unchanged rerun's body differs", round)
		}
		if reused != len(resp.Disaggregated) {
			t.Fatalf("round %d: unchanged rerun re-encoded %d of %d groups, want 0",
				round, len(resp.Disaggregated)-reused, len(resp.Disaggregated))
		}
		prev = next
	}
}

// TestScheduleEncodedReuseServer pins the cache at the HTTP surface:
// an incremental flexd and a full-recompute one take the same churn —
// re-submissions, a reset, a target change, a cap change — and every
// /v1/schedule body of the first, including two concurrent requests
// per round, equals the second's.
func TestScheduleEncodedReuseServer(t *testing.T) {
	offers, ndjson := incrementalFleet(t, 300, 6, 12)
	rng := rand.New(rand.NewSource(67))
	gp := []flex.Option{flex.WithWorkers(2), flex.WithSafe(true)}
	incSrv, _ := newShardedTestServer(t, 2, Options{}, append(gp, flex.WithIncremental(true))...)
	fullSrv, _ := newShardedTestServer(t, 2, Options{}, gp...)
	both := func(do func(base string)) {
		do(incSrv.URL)
		do(fullSrv.URL)
	}
	ingest := func(body []byte) {
		both(func(base string) {
			if resp, b := post(t, base+"/v1/offers", bytes.NewReader(body)); resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest: %s: %s", resp.Status, b)
			}
		})
	}
	ingest(ndjson)
	for round := 0; round < 10; round++ {
		query := "/v1/schedule?horizon=120&est=2&max-group=16"
		switch round {
		case 3:
			both(func(base string) {
				req, _ := http.NewRequest(http.MethodDelete, base+"/v1/offers", nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("reset: %v %v", resp, err)
				}
				resp.Body.Close()
			})
			ingest(ndjson)
		case 5:
			query += "&target=35"
		case 7:
			query += "&cap=90"
		default:
			var buf bytes.Buffer
			if err := flexoffer.EncodeNDJSON(&buf, resubmit(t, rng, offers, 4)); err != nil {
				t.Fatal(err)
			}
			ingest(buf.Bytes())
		}
		resp, want := post(t, fullSrv.URL+query, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: full schedule: %s: %s", round, resp.Status, want)
		}
		// Two concurrent requests, then one after both.
		bodies := make([][]byte, 3)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := http.Post(incSrv.URL+query, "", nil)
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				bodies[i], err = io.ReadAll(resp.Body)
				if err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		_, bodies[2] = post(t, incSrv.URL+query, nil)
		for i, got := range bodies {
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d request %d: incremental body differs from the full recompute (%d vs %d bytes)",
					round, i, len(got), len(want))
			}
		}
	}
	_, mb := get(t, incSrv.URL+"/metrics")
	if v := metricValue(t, string(mb), "flexd_sched_encoded_groups_reused"); v == 0 {
		t.Error("the last of three identical schedules copied no encoded group")
	}
}
