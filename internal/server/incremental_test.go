package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"

	flex "flexmeasures"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/workload"
)

// metricValue extracts an unlabeled metric's value from Prometheus
// exposition text.
func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseInt(strings.TrimPrefix(line, name+" "), 10, 64)
			if err != nil {
				t.Fatalf("parse %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// incrementalFleet builds a fleet whose earliest starts sit in well-
// separated clusters (see clusteredFleet in the root package), so the
// grouping's EST-gap cuts bound the blast radius of a replacement to
// its own segment.
func incrementalFleet(t *testing.T, n, clusters, spacing int) ([]*flexoffer.FlexOffer, []byte) {
	t.Helper()
	offers, err := workload.Population(rand.New(rand.NewSource(47)), n, 2, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range offers {
		f.ID = fmt.Sprintf("p-%04d", i)
		est := (i % clusters) * spacing
		f.LatestStart += est - f.EarliestStart
		f.EarliestStart = est
	}
	var buf bytes.Buffer
	if err := flexoffer.EncodeNDJSON(&buf, offers); err != nil {
		t.Fatal(err)
	}
	return offers, buf.Bytes()
}

// TestIncrementalScheduleMetrics is the acceptance criterion at the
// HTTP surface: after a ≤1% fleet delta, /v1/schedule re-places only
// the dirty groups, observable on /metrics as a small
// flexd_sched_dirty_groups against a larger
// flexd_sched_reused_placements, with cache hits accumulating and the
// pending-mutations gauge draining on each successful run.
func TestIncrementalScheduleMetrics(t *testing.T) {
	offers, ndjson := incrementalFleet(t, 400, 8, 12)
	srv, _ := newShardedTestServer(t, 4, Options{},
		flex.WithWorkers(2), flex.WithSafe(true), flex.WithIncremental(true))
	query := srv.URL + "/v1/schedule?horizon=120&est=2&max-group=16"

	resp, body := post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s: %s", resp.Status, body)
	}
	_, mb := get(t, srv.URL+"/metrics")
	if v := metricValue(t, string(mb), "flexd_sched_pending_mutations"); v != int64(len(offers)) {
		t.Errorf("pending mutations after ingest = %d, want %d", v, len(offers))
	}

	// Cold cache: the first run misses every group and places everything.
	if resp, body := post(t, query, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %s: %s", resp.Status, body)
	}
	_, mb = get(t, srv.URL+"/metrics")
	text := string(mb)
	if v := metricValue(t, text, "flexd_sched_incremental_runs_total"); v != 1 {
		t.Errorf("runs after first schedule = %d, want 1", v)
	}
	if v := metricValue(t, text, "flexd_sched_full_recompute_total"); v != 1 {
		t.Errorf("cold run not counted as full recompute: %d", v)
	}
	if v := metricValue(t, text, "flexd_sched_pending_mutations"); v != 0 {
		t.Errorf("pending mutations after schedule = %d, want 0", v)
	}
	// A cold run sorts every offer and has no previous body to copy.
	if v := metricValue(t, text, "flexd_sched_order_delta"); v != int64(len(offers)) {
		t.Errorf("order delta of the cold run = %d, want %d", v, len(offers))
	}
	if v := metricValue(t, text, "flexd_sched_encoded_groups_reused"); v != 0 {
		t.Errorf("cold run copied %d encoded groups, want 0", v)
	}

	// Re-submit 3 offers (<1% of 400) under existing IDs, staying in
	// each replaced offer's EST cluster.
	repl, err := workload.Population(rand.New(rand.NewSource(53)), 3, 2, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range repl {
		idx := 1 + 3*i
		f.ID = fmt.Sprintf("p-%04d", idx)
		est := (idx % 8) * 12
		f.LatestStart += est - f.EarliestStart
		f.EarliestStart = est
	}
	var buf bytes.Buffer
	if err := flexoffer.EncodeNDJSON(&buf, repl); err != nil {
		t.Fatal(err)
	}
	if resp, body := post(t, srv.URL+"/v1/offers", &buf); resp.StatusCode != http.StatusOK {
		t.Fatalf("delta ingest: %s: %s", resp.Status, body)
	}
	_, mb = get(t, srv.URL+"/metrics")
	if v := metricValue(t, string(mb), "flexd_sched_pending_mutations"); v != 3 {
		t.Errorf("pending mutations after delta = %d, want 3", v)
	}

	if resp, body := post(t, query, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("second schedule: %s: %s", resp.Status, body)
	}
	_, mb = get(t, srv.URL+"/metrics")
	text = string(mb)
	dirty := metricValue(t, text, "flexd_sched_dirty_groups")
	reused := metricValue(t, text, "flexd_sched_reused_placements")
	if hits := metricValue(t, text, "flexd_sched_cache_hits_total"); hits == 0 {
		t.Error("no cache hits after unchanged-majority delta")
	}
	if dirty == 0 {
		t.Error("delta run re-aggregated no groups — the 3 replacements must dirty their segments")
	}
	// The dirty groups' unchanged members keep their layouts.
	if v := metricValue(t, text, "flexd_sched_layouts_reused_total"); v == 0 {
		t.Error("delta run copied no member layout from the previous aggregates")
	}
	if reused == 0 || dirty >= reused {
		t.Errorf("delta run dirtied %d groups but replayed only %d — want re-placement O(changed groups)", dirty, reused)
	}
	if v := metricValue(t, text, "flexd_sched_full_recompute_total"); v != 1 {
		t.Errorf("delta run fell back to full recompute (total %d, want 1)", v)
	}
	// The 3 replacements re-sort 3 removed and 3 added entries, and
	// every group whose placement replayed keeps its encoded JSON.
	if v := metricValue(t, text, "flexd_sched_order_delta"); v != 6 {
		t.Errorf("order delta of the delta run = %d, want 6", v)
	}
	if v := metricValue(t, text, "flexd_sched_encoded_groups_reused"); v < reused {
		t.Errorf("delta run copied %d encoded groups, want at least the %d replayed placements", v, reused)
	}

	// An identical schedule re-sorts nothing and re-encodes no group.
	_, body = post(t, query, nil)
	var sr ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	_, mb = get(t, srv.URL+"/metrics")
	text = string(mb)
	if v := metricValue(t, text, "flexd_sched_order_delta"); v != 0 {
		t.Errorf("order delta of an unchanged run = %d, want 0", v)
	}
	if v := metricValue(t, text, "flexd_sched_encoded_groups_reused"); v != int64(sr.Aggregates) {
		t.Errorf("unchanged run copied %d of %d encoded groups, want all", v, sr.Aggregates)
	}

	// Reset drops the store and the cache; the next run is cold again.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/offers", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("reset: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	_, mb = get(t, srv.URL+"/metrics")
	if v := metricValue(t, string(mb), "flexd_sched_pending_mutations"); v == 0 {
		t.Error("reset noted no mutation")
	}
	if v := metricValue(t, string(mb), "flexd_sched_order_delta"); v != 0 {
		t.Errorf("order delta after reset = %d, want 0", v)
	}
}
