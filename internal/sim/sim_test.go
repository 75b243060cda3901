package sim

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	flex "flexmeasures"
	"flexmeasures/internal/server"
)

// newFlexd boots a fresh in-process flexd (memory store) the way the
// binary would configure it: safe aggregation on, small worker pool.
// Extra engine options are appended to that baseline.
func newFlexd(t *testing.T, shards int, engOpts ...flex.Option) *Client {
	t.Helper()
	opts := append([]flex.Option{flex.WithWorkers(2), flex.WithSafe(true)}, engOpts...)
	eng := flex.NewSharded(shards, opts...)
	t.Cleanup(eng.Close)
	srv := httptest.NewServer(server.NewSharded(eng, server.Options{}))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, NewMetrics())
}

// TestClosedLoopDeterministic is the determinism oracle: two
// closed-loop runs of the same scenario, seed and window against two
// fresh flexd instances must produce byte-identical event traces and
// deterministic-report JSON. This is the contract flexsim's CI step
// pins.
func TestClosedLoopDeterministic(t *testing.T) {
	sc, ok := Lookup("ev-morning")
	if !ok {
		t.Fatal("ev-morning not registered")
	}
	ctx := context.Background()

	run := func() *Report {
		rep, err := ClosedLoop(ctx, sc, newFlexd(t, 1), 42, 2)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()

	if a.OffersSubmitted == 0 {
		t.Fatal("run submitted no offers — scenario window misses its waves")
	}
	if len(a.Rounds) == 0 {
		t.Fatal("run produced no dispatch rounds")
	}
	if a.Failed != 0 {
		t.Fatalf("run had %d failed requests", a.Failed)
	}
	if a.TraceDigest != b.TraceDigest {
		t.Errorf("trace digests differ: %s vs %s", a.TraceDigest, b.TraceDigest)
	}
	at, bt := a.Trace(), b.Trace()
	if len(at) != len(bt) {
		t.Fatalf("trace lengths differ: %d vs %d", len(at), len(bt))
	}
	for i := range at {
		if at[i] != bt[i] {
			t.Fatalf("trace line %d differs:\n  a: %s\n  b: %s", i, at[i], bt[i])
		}
	}
	da, db := a.Deterministic(), b.Deterministic()
	if !bytes.Equal(da, db) {
		t.Errorf("deterministic reports differ:\n%s\n---\n%s", da, db)
	}
}

// TestClosedLoopSeedSensitivity: different seeds must explore different
// arrival sequences (otherwise the oracle above proves nothing).
func TestClosedLoopSeedSensitivity(t *testing.T) {
	sc, _ := Lookup("ev-morning")
	ctx := context.Background()
	a, err := ClosedLoop(ctx, sc, newFlexd(t, 1), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClosedLoop(ctx, sc, newFlexd(t, 1), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceDigest == b.TraceDigest {
		t.Fatalf("seeds 1 and 2 produced the same trace digest %s", a.TraceDigest)
	}
}

// TestClosedLoopZoneStress runs the zone scenario against a sharded
// flexd (zone labels route offers to shards) and checks the final
// capacity report.
func TestClosedLoopZoneStress(t *testing.T) {
	sc, ok := Lookup("zone-stress")
	if !ok {
		t.Fatal("zone-stress not registered")
	}
	client := newFlexd(t, 2)
	rep, err := ClosedLoop(context.Background(), sc, client, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("zone-stress run had %d failed requests", rep.Failed)
	}
	if len(rep.Zones) == 0 {
		t.Fatal("zone-stress produced no zone reports")
	}
	for _, z := range rep.Zones {
		if z.Zone == "" || z.Offers == 0 {
			t.Fatalf("empty zone report: %+v", z)
		}
		if z.PeakHi <= 0 {
			t.Fatalf("zone %s: non-positive consumption peak %d", z.Zone, z.PeakHi)
		}
		if z.Capacity != sc.Zones.Capacity {
			t.Fatalf("zone %s: capacity %d, want %d", z.Zone, z.Capacity, sc.Zones.Capacity)
		}
	}
}

// TestClosedLoopDemandResponse checks the price-spike event fires and
// re-dispatches.
func TestClosedLoopDemandResponse(t *testing.T) {
	sc, ok := Lookup("demand-response")
	if !ok {
		t.Fatal("demand-response not registered")
	}
	// Window [5, 9) covers the 08:00 spike.
	rep, err := ClosedLoop(context.Background(), sc, newFlexd(t, 1), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	var spiked bool
	for _, r := range rep.Rounds {
		if r.Kind == "demand-response" {
			spiked = true
		}
	}
	if !spiked {
		t.Fatalf("no demand-response round in %+v", rep.Rounds)
	}
	var sawSpike bool
	for _, l := range rep.Trace() {
		if strings.Contains(l, "price-spike") {
			sawSpike = true
		}
	}
	if !sawSpike {
		t.Fatal("price-spike event missing from trace")
	}
}

// TestClientServerLatencyCrossCheck: on a dedicated flexd, the server's
// flexd_request_seconds_count per path must equal the client's request
// count for that path — the two ends of the same histogram satellite.
func TestClientServerLatencyCrossCheck(t *testing.T) {
	sc, _ := Lookup("ev-morning")
	client := newFlexd(t, 1)
	ctx := context.Background()
	if _, err := ClosedLoop(ctx, sc, client, 42, 2); err != nil {
		t.Fatal(err)
	}
	serverCounts, err := client.ServerLatencyCounts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range client.Metrics.Paths() {
		want := client.Metrics.Endpoint(p).Hist.Count()
		if got := serverCounts[p]; got != want {
			t.Errorf("path %s: server saw %d requests, client sent %d", p, got, want)
		}
	}
}

// TestOpenLoop drives the wall-clock load generator briefly. A
// schedule follows every second submission, so the interleave needs
// only two delivered ticks, not a full 300 ms of them on CPUs other
// test binaries keep busy.
func TestOpenLoop(t *testing.T) {
	sc, _ := Lookup("ev-morning")
	client := newFlexd(t, 1)
	rep, err := OpenLoop(context.Background(), sc, client, LoadOptions{
		Rate:          500,
		Clients:       2,
		Duration:      300 * time.Millisecond,
		ScheduleEvery: 2,
		Seed:          9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" {
		t.Fatalf("Mode = %q", rep.Mode)
	}
	if rep.OffersSubmitted == 0 {
		t.Fatal("open loop submitted no offers")
	}
	if rep.Failed != 0 {
		t.Fatalf("open loop had %d failed requests", rep.Failed)
	}
	var sawSchedule bool
	for _, e := range rep.Endpoints {
		if e.Path == "/v1/schedule" && e.Requests > 0 {
			sawSchedule = true
		}
	}
	if !sawSchedule {
		t.Fatal("open loop never interleaved a schedule request")
	}
}

func TestOpenLoopValidation(t *testing.T) {
	sc, _ := Lookup("ev-morning")
	client := NewClient(":0", nil)
	for _, opts := range []LoadOptions{
		{Rate: 0, Duration: time.Second},
		{Rate: -5, Duration: time.Second},
		{Rate: 10, Duration: 0},
		{Rate: 10, Duration: time.Second, Clients: -1},
	} {
		if _, err := OpenLoop(context.Background(), sc, client, opts); err == nil {
			t.Errorf("OpenLoop(%+v) accepted invalid options", opts)
		}
	}
}

// TestRegistry pins the registry contract: the builtin catalogue is
// present and sorted, duplicates and invalid scenarios are rejected.
func TestRegistry(t *testing.T) {
	all := Scenarios()
	if len(all) < 3 {
		t.Fatalf("only %d builtin scenarios", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("Scenarios not sorted: %q before %q", all[i-1].Name, all[i].Name)
		}
	}
	for _, name := range []string{"ev-morning", "ev-evening", "demand-response", "zone-stress", "city-day"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("builtin scenario %q missing", name)
		}
	}
	if err := Register(Scenario{Name: "ev-morning", Waves: []Wave{{Rate: Flat(1)}}}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := Register(Scenario{Name: "no-waves"}); err == nil {
		t.Error("scenario without waves accepted")
	}
	if err := Register(Scenario{Name: "no-rate", Waves: []Wave{{Name: "w"}}}); err == nil {
		t.Error("wave without rate accepted")
	}
	if err := Register(Scenario{Name: "neg-start", Start: -1, Waves: []Wave{{Rate: Flat(1)}}}); err == nil {
		t.Error("negative start accepted")
	}
}

// TestClosedLoopBadInput: runner-level validation.
func TestClosedLoopBadInput(t *testing.T) {
	sc, _ := Lookup("ev-morning")
	client := NewClient(":0", nil)
	if _, err := ClosedLoop(context.Background(), sc, client, 1, 0); err == nil {
		t.Error("slots=0 accepted")
	}
	if _, err := ClosedLoop(context.Background(), Scenario{}, client, 1, 1); err == nil {
		t.Error("empty scenario accepted")
	}
}

// TestIncrementalServerParity drives the ev-morning and city-day
// scenarios — churn-heavy closed loops whose dispatch rounds
// re-schedule an evolving fleet, exactly the traffic incremental
// scheduling exists for — against a flexd with incremental scheduling
// on (the binary's default) and one recomputing from scratch. The
// deterministic reports must be byte-identical: the cache may change
// where time goes, never a byte of schedule output.
func TestIncrementalServerParity(t *testing.T) {
	for _, name := range []string{"ev-morning", "city-day"} {
		t.Run(name, func(t *testing.T) {
			sc, ok := Lookup(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			ctx := context.Background()
			inc, err := ClosedLoop(ctx, sc, newFlexd(t, 2, flex.WithIncremental(true)), 42, 2)
			if err != nil {
				t.Fatal(err)
			}
			full, err := ClosedLoop(ctx, sc, newFlexd(t, 2), 42, 2)
			if err != nil {
				t.Fatal(err)
			}
			if inc.OffersSubmitted == 0 || len(inc.Rounds) == 0 {
				t.Fatalf("run submitted %d offers over %d rounds — scenario window misses its waves",
					inc.OffersSubmitted, len(inc.Rounds))
			}
			if inc.Failed != 0 || full.Failed != 0 {
				t.Fatalf("failed requests: incremental %d, full %d", inc.Failed, full.Failed)
			}
			di, df := inc.Deterministic(), full.Deterministic()
			if !bytes.Equal(di, df) {
				t.Errorf("deterministic reports diverge between incremental and full-recompute flexd:\n%s\n---\n%s", di, df)
			}
		})
	}
}
