package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	flex "flexmeasures"
	"flexmeasures/internal/obs"
	"flexmeasures/internal/persist"
	"flexmeasures/internal/shard"
	"flexmeasures/internal/timeseries"
)

// tracedOptions returns server Options with a fresh tracer installed.
func tracedOptions(o Options) (Options, *obs.Tracer) {
	tr := obs.NewTracer(64, 0)
	o.Tracer = tr
	return o, tr
}

// TestScheduleByteParityWithTracing pins the tentpole's safety
// property: tracing never changes results. The same fleet scheduled
// through traced and untraced servers, across shard and worker counts,
// must produce byte-identical /v1/schedule responses, all equal to the
// single-engine flexctl reference.
func TestScheduleByteParityWithTracing(t *testing.T) {
	offers, ndjson := zonedFleet(t, 180, 5)
	const horizon, cap = 72, 55
	query := fmt.Sprintf("/v1/schedule?horizon=%d&cap=%d&est=3&max-group=24", horizon, cap)

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

	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			for _, traced := range []bool{false, true} {
				opts := Options{}
				if traced {
					opts, _ = tracedOptions(opts)
				}
				srv, _ := newShardedTestServer(t, shards, opts,
					flex.WithWorkers(workers), flex.WithSafe(true))
				resp, body := post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("shards=%d workers=%d traced=%v: ingest: %s: %s",
						shards, workers, traced, resp.Status, body)
				}
				resp, body = post(t, srv.URL+query, nil)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("shards=%d workers=%d traced=%v: schedule: %s: %s",
						shards, workers, traced, resp.Status, body)
				}
				if !bytes.Equal(body, want.Bytes()) {
					t.Errorf("shards=%d workers=%d traced=%v: /v1/schedule bytes differ from reference (%d vs %d bytes)",
						shards, workers, traced, len(body), want.Len())
				}
			}
		}
	}
}

// TestTracePipelineE2E is the acceptance test of the observability
// PR: one traced /v1/schedule call against a WAL-backed sharded
// server must surface every pipeline stage both as a span in
// /debug/traces and as a flexd_stage_seconds{stage} histogram sample
// in /metrics — with the response bytes identical to an untraced
// server's.
func TestTracePipelineE2E(t *testing.T) {
	_, ndjson := zonedFleet(t, 180, 5)
	const query = "/v1/schedule?horizon=72&est=3&max-group=24"

	opts, tracer := tracedOptions(Options{})
	wal, err := persist.OpenWAL(persist.Options{
		Dir:     t.TempDir(),
		Router:  shard.Router{Shards: 2},
		Fsync:   persist.FsyncAlways,
		Metrics: tracer.Metrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	opts.Store = wal
	srv, _ := newShardedTestServer(t, 2, opts, flex.WithWorkers(4), flex.WithSafe(true))

	// The untraced reference for the byte check.
	refSrv, _ := newShardedTestServer(t, 2, Options{}, flex.WithWorkers(4), flex.WithSafe(true))
	if resp, body := post(t, refSrv.URL+"/v1/offers", bytes.NewReader(ndjson)); resp.StatusCode != http.StatusOK {
		t.Fatalf("reference ingest: %s: %s", resp.Status, body)
	}
	_, wantBody := post(t, refSrv.URL+query, nil)

	if resp, body := post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s: %s", resp.Status, body)
	}

	want := []string{
		obs.StageIngestDecode, obs.StageGroupSort, obs.StageGroupPack,
		obs.StageAggregate, obs.StageSchedule, obs.StageDisaggregate,
		obs.StageWALAppend, obs.StageWALFsync, obs.StagePoolQueue,
	}
	// The queue-wait span needs a pool helper to actually dequeue a
	// task, which the first requests can lose the race for while the
	// workers are still parking; retry the schedule call until every
	// stage has shown up (each attempt must stay byte-identical).
	seen := make(map[string]bool)
	scheduled := 0
	for attempt := 0; attempt < 50; attempt++ {
		resp, body := post(t, srv.URL+query, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("schedule: %s: %s", resp.Status, body)
		}
		if !bytes.Equal(body, wantBody) {
			t.Fatalf("traced /v1/schedule bytes differ from the untraced server (%d vs %d bytes)",
				len(body), len(wantBody))
		}
		scheduled++
		for k := range seen {
			delete(seen, k)
		}
		resp, body = get(t, srv.URL+"/debug/traces")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/debug/traces: %s: %s", resp.Status, body)
		}
		var traces []obs.TraceData
		if err := json.Unmarshal(body, &traces); err != nil {
			t.Fatalf("decoding /debug/traces: %v", err)
		}
		for _, td := range traces {
			for _, sp := range td.Spans {
				if sp.DurationNs <= 0 && sp.Name != obs.StagePoolQueue {
					t.Errorf("trace %s: span %q never ended", td.ID, sp.Name)
				}
				seen[sp.Name] = true
			}
		}
		if all(seen, want) {
			break
		}
	}
	if !all(seen, want) {
		t.Fatalf("after %d schedule calls, stages seen in /debug/traces: %v, want all of %v",
			scheduled, keys(seen), want)
	}

	// Trace bookkeeping: the ingest trace counted the fleet, the
	// schedule trace counted groups, and both carried request IDs.
	resp, body := get(t, srv.URL+"/debug/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: %s", resp.Status)
	}
	var traces []obs.TraceData
	if err := json.Unmarshal(body, &traces); err != nil {
		t.Fatal(err)
	}
	var sawOffers, sawGroups bool
	for _, td := range traces {
		if td.ID == "" {
			t.Error("trace with empty ID")
		}
		if td.Offers == 180 {
			sawOffers = true
		}
		if td.Groups > 0 {
			sawGroups = true
		}
	}
	if !sawOffers || !sawGroups {
		t.Errorf("want an ingest trace with offers=180 and a schedule trace with groups>0 (offers=%v groups=%v)",
			sawOffers, sawGroups)
	}

	// A measures request adds its own stage beside the pipeline's. Its
	// trace finishes into the ring just after the response is written,
	// so poll until the newest trace holds the span.
	if resp, body := get(t, srv.URL+"/v1/measures"); resp.StatusCode != http.StatusOK {
		t.Fatalf("measures: %s: %s", resp.Status, body)
	}
	sawMeasures := false
	for deadline := time.Now().Add(5 * time.Second); !sawMeasures && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, body := get(t, srv.URL+"/debug/traces?n=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/debug/traces: %s", resp.Status)
		}
		traces = nil
		if err := json.Unmarshal(body, &traces); err != nil {
			t.Fatal(err)
		}
		for _, td := range traces {
			for _, sp := range td.Spans {
				sawMeasures = sawMeasures || (sp.Name == obs.StageMeasures && sp.DurationNs > 0)
			}
		}
	}
	if !sawMeasures {
		t.Errorf("newest trace after GET /v1/measures has no ended %q span: %+v", obs.StageMeasures, traces)
	}

	// Every stage must also have landed a histogram sample.
	_, metrics := get(t, srv.URL+"/metrics")
	for _, stage := range append(want, obs.StageMeasures) {
		prefix := fmt.Sprintf("flexd_stage_seconds_count{stage=%q", stage)
		if !metricSamplePositive(string(metrics), prefix) {
			t.Errorf("/metrics: no positive flexd_stage_seconds sample for stage %q", stage)
		}
	}
}

// all reports whether every key in want is set in seen.
func all(seen map[string]bool, want []string) bool {
	for _, k := range want {
		if !seen[k] {
			return false
		}
	}
	return true
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// metricSamplePositive reports whether any sample line starting with
// prefix has a positive value.
func metricSamplePositive(metrics, prefix string) bool {
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		var v float64
		if i := strings.LastIndex(line, " "); i >= 0 {
			if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err == nil && v > 0 {
				return true
			}
		}
	}
	return false
}

// TestMetricsExposition scrapes /metrics after traffic on every kind
// of route — including an unknown path — and checks each expected
// family is present in well-formed exposition format, with unknown
// paths normalised to the shared "other" label.
func TestMetricsExposition(t *testing.T) {
	_, ndjson := zonedFleet(t, 60, 3)
	opts, _ := tracedOptions(Options{})
	srv, _ := newShardedTestServer(t, 2, opts, flex.WithWorkers(2), flex.WithSafe(true))

	if resp, body := post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s: %s", resp.Status, body)
	}
	if resp, body := post(t, srv.URL+"/v1/schedule?horizon=48&est=3", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %s: %s", resp.Status, body)
	}
	if resp, body := get(t, srv.URL+"/v1/measures"); resp.StatusCode != http.StatusOK {
		t.Fatalf("measures: %s: %s", resp.Status, body)
	}
	// Unknown paths: distinct URLs, one shared label.
	for _, p := range []string{"/nope", "/v1/unknown", "/admin/../etc"} {
		if resp, _ := get(t, srv.URL+p); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: got %d, want 404", p, resp.StatusCode)
		}
	}
	if resp, _ := get(t, srv.URL+"/debug/traces?n=5"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: %s", resp.Status)
	}

	_, body := get(t, srv.URL+"/metrics")
	metrics := string(body)

	families := []string{
		"flexd_build_info", "flexd_requests_total", "flexd_requests_rejected_total",
		"flexd_requests_in_flight", "flexd_request_seconds", "flexd_ingest_records_total",
		"flexd_ingest_bytes_total", "flexd_pool_workers", "flexd_pool_busy",
		"flexd_offers_stored", "flexd_wal_degraded", "flexd_degraded_rejects_total",
		"flexd_shard_offers_stored", "flexd_shard_ingest_records_total",
		"flexd_shard_pool_workers", "flexd_shard_pool_busy",
		"flexd_stage_seconds", "flexd_pool_queue_seconds", "flexd_wal_fsync_seconds",
		"flexd_offers_ingested_total", "flexd_groups_total",
		"flexd_sched_order_delta", "flexd_sched_encoded_groups_reused",
		"flexd_sched_layouts_reused_total", "flexd_sched_layouts_built_total",
	}
	for _, fam := range families {
		if !strings.Contains(metrics, "# HELP "+fam+" ") {
			t.Errorf("/metrics: missing HELP for %s", fam)
		}
		if !strings.Contains(metrics, "# TYPE "+fam+" ") {
			t.Errorf("/metrics: missing TYPE for %s", fam)
		}
	}

	// The engine runs without WithIncremental: no cached order, no
	// layouts from the cache or built for it, and a first schedule has
	// no previous body to copy from.
	for _, name := range []string{"flexd_sched_layouts_reused_total", "flexd_sched_layouts_built_total"} {
		if v := metricValue(t, metrics, name); v != 0 {
			t.Errorf("%s = %d, want 0", name, v)
		}
	}
	if v := findLine(metrics, "flexd_sched_order_delta "); v != "0" {
		t.Errorf("flexd_sched_order_delta = %q, want 0", v)
	}
	if v := findLine(metrics, "flexd_sched_encoded_groups_reused "); v != "0" {
		t.Errorf("flexd_sched_encoded_groups_reused = %q, want 0", v)
	}

	var buildInfo int
	if _, err := fmt.Sscanf(findLine(metrics, "flexd_build_info{"), "%d", &buildInfo); err != nil || buildInfo != 1 {
		t.Errorf("flexd_build_info: got %d (err %v), want 1", buildInfo, err)
	}
	if !strings.Contains(metrics, `flexd_build_info{version="`) ||
		!strings.Contains(metrics, `go_version="go`) {
		t.Error("flexd_build_info missing version/go_version labels")
	}

	// The three unknown paths all landed under one "other" label.
	var other int
	if _, err := fmt.Sscanf(findLine(metrics, `flexd_requests_total{path="other"}`), "%d", &other); err != nil || other != 3 {
		t.Errorf(`flexd_requests_total{path="other"}: got %d (err %v), want 3`, other, err)
	}
	if !strings.Contains(metrics, `flexd_request_seconds_count{path="other",code="404"}`) {
		t.Error(`missing flexd_request_seconds_count{path="other",code="404"} series`)
	}
	if strings.Contains(metrics, `path="/nope"`) {
		t.Error(`unknown path /nope leaked into metric labels`)
	}

	var ingested int
	if _, err := fmt.Sscanf(findLine(metrics, "flexd_offers_ingested_total "), "%d", &ingested); err != nil || ingested != 60 {
		t.Errorf("flexd_offers_ingested_total: got %d (err %v), want 60", ingested, err)
	}
	var groups int
	if _, err := fmt.Sscanf(findLine(metrics, "flexd_groups_total "), "%d", &groups); err != nil || groups < 1 {
		t.Errorf("flexd_groups_total: got %d (err %v), want >= 1", groups, err)
	}

	// Histogram shape: stage histograms must end in +Inf and have
	// matching _sum/_count series.
	if !strings.Contains(metrics, `flexd_stage_seconds_bucket{stage="schedule",le="+Inf"}`) {
		t.Error("flexd_stage_seconds missing +Inf bucket for stage schedule")
	}
	if !strings.Contains(metrics, `flexd_stage_seconds_count{stage="schedule"}`) {
		t.Error("flexd_stage_seconds missing _count for stage schedule")
	}
	if !strings.Contains(metrics, `flexd_stage_seconds_bucket{stage="measures",le="+Inf"}`) ||
		!metricSamplePositive(metrics, `flexd_stage_seconds_count{stage="measures"}`) {
		t.Error("flexd_stage_seconds missing a sample for stage measures")
	}
	if !strings.Contains(metrics, `flexd_pool_queue_seconds_bucket{le="+Inf"}`) {
		t.Error("flexd_pool_queue_seconds missing +Inf bucket")
	}
	if !strings.Contains(metrics, "flexd_wal_fsync_seconds_count ") {
		t.Error("flexd_wal_fsync_seconds missing _count")
	}
}

// findLine returns the value part (after the last space) of the first
// metrics line starting with prefix, or "" when absent.
func findLine(metrics, prefix string) string {
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, prefix) {
			if i := strings.LastIndex(line, " "); i >= 0 {
				return line[i+1:]
			}
		}
	}
	return ""
}

// TestMethodNotAllowedWithTracing re-pins the 405 contract on a traced
// server: the "other" normalisation must not swallow wrong-method
// requests on known paths.
func TestMethodNotAllowedWithTracing(t *testing.T) {
	opts, _ := tracedOptions(Options{})
	srv, _ := newShardedTestServer(t, 1, opts, flex.WithWorkers(1))
	resp, _ := get(t, srv.URL+"/v1/aggregate")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/aggregate on traced server: got %d, want 405", resp.StatusCode)
	}
}

// TestDebugTracesEndpoint covers the ring surface: bounded output,
// newest-first order, the ?n cap, and the header echo that ties a
// response to its trace.
func TestDebugTracesEndpoint(t *testing.T) {
	_, ndjson := zonedFleet(t, 40, 3)
	opts, _ := tracedOptions(Options{})
	srv, _ := newShardedTestServer(t, 1, opts, flex.WithWorkers(1), flex.WithSafe(true))

	if resp, body := post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s: %s", resp.Status, body)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/schedule?horizon=48", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "my-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "my-trace-42" {
		t.Errorf("X-Request-Id echo: got %q, want my-trace-42", got)
	}

	// The request's trace finishes into the ring just after its
	// response is written, so the client can get here first: poll
	// until the newest trace is the schedule's (or a deadline passes
	// and the assertions below report what the ring holds).
	var traces []obs.TraceData
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp2, body := get(t, srv.URL+"/debug/traces?n=1")
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("/debug/traces: %s", resp2.Status)
		}
		traces = nil
		if err := json.Unmarshal(body, &traces); err != nil {
			t.Fatal(err)
		}
		if (len(traces) == 1 && traces[0].ID == "my-trace-42") || time.Now().After(deadline) {
			break
		}
	}
	if len(traces) != 1 {
		t.Fatalf("?n=1: got %d traces", len(traces))
	}
	if traces[0].ID != "my-trace-42" {
		t.Errorf("newest trace ID: got %q, want my-trace-42 (newest-first order)", traces[0].ID)
	}
	if len(traces[0].Spans) == 0 {
		t.Error("schedule trace has no spans")
	}
}

// TestTracedServerHammer drives a traced WAL-backed server from 12
// concurrent goroutines mixing ingest, schedule, trace reads and
// metric scrapes — the CI -race target proving the span arena, the
// trace ring and the stage-metrics sink are data-race free under
// production-shaped concurrency.
func TestTracedServerHammer(t *testing.T) {
	_, ndjson := zonedFleet(t, 60, 3)
	opts, _ := tracedOptions(Options{MaxInFlight: 64})
	srv, _ := newShardedTestServer(t, 2, opts, flex.WithWorkers(2), flex.WithSafe(true))

	if resp, body := post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson)); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed ingest: %s: %s", resp.Status, body)
	}

	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				switch (g + i) % 4 {
				case 0:
					resp, body := post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson))
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
						t.Errorf("ingest: %s: %s", resp.Status, body)
					}
				case 1:
					resp, body := post(t, srv.URL+"/v1/schedule?horizon=48&est=3", nil)
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
						t.Errorf("schedule: %s: %s", resp.Status, body)
					}
				case 2:
					resp, _ := get(t, srv.URL+"/debug/traces?n=8")
					if resp.StatusCode != http.StatusOK {
						t.Errorf("/debug/traces: %s", resp.Status)
					}
				case 3:
					resp, _ := get(t, srv.URL+"/metrics")
					if resp.StatusCode != http.StatusOK {
						t.Errorf("/metrics: %s", resp.Status)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
