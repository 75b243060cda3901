package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	flex "flexmeasures"
	"flexmeasures/internal/server"
	"flexmeasures/internal/sim"
)

// newFlexd boots an in-process flexd with a memory store, configured
// like the binary's defaults (safe aggregation on).
func newFlexd(t *testing.T) *httptest.Server {
	t.Helper()
	eng := flex.New(flex.WithWorkers(2), flex.WithSafe(true))
	srv := httptest.NewServer(server.NewSharded(eng, server.Options{}))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return srv
}

// TestClosedLoopSmoke is the CI smoke run: ev-morning, 2 virtual
// slots, seed 1, closed loop — a non-empty report with zero failed
// requests.
func TestClosedLoopSmoke(t *testing.T) {
	srv := newFlexd(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-scenario", "ev-morning", "-duration", "2s", "-seed", "1", "-addr", srv.URL, "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep sim.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	if rep.Scenario != "ev-morning" || rep.Mode != "closed" || rep.Seed != 1 {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if rep.OffersSubmitted == 0 || rep.Requests == 0 || len(rep.Endpoints) == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if rep.Failed != 0 {
		t.Fatalf("smoke run had %d failed requests", rep.Failed)
	}
	if rep.TraceDigest == "" {
		t.Fatal("report has no trace digest")
	}
}

// TestTraceOracle pins the CLI-level determinism contract: two runs
// with the same scenario, seed and duration — against fresh servers —
// print byte-identical event traces.
func TestTraceOracle(t *testing.T) {
	runOnce := func() string {
		srv := newFlexd(t)
		var out bytes.Buffer
		err := run(context.Background(), []string{
			"-scenario", "ev-morning", "-duration", "2s", "-seed", "42", "-addr", srv.URL, "-trace", "-json",
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		// The trace precedes the JSON report, separated by a blank line.
		text := out.String()
		idx := strings.Index(text, "\n\n")
		if idx < 0 {
			t.Fatalf("no trace/report separator in output:\n%s", text)
		}
		return text[:idx]
	}
	a, b := runOnce(), runOnce()
	if a == "" {
		t.Fatal("empty event trace")
	}
	if a != b {
		t.Fatalf("event traces differ between identical runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestOpenLoopSmoke(t *testing.T) {
	srv := newFlexd(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-mode", "open", "-rate", "400", "-clients", "2", "-duration", "250ms",
		"-schedule-every", "20", "-addr", srv.URL, "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep sim.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" || rep.OffersSubmitted == 0 {
		t.Fatalf("open-loop report: %+v", rep)
	}
	if rep.Failed != 0 {
		t.Fatalf("open-loop run had %d failed requests", rep.Failed)
	}
}

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ev-morning", "ev-evening", "demand-response", "zone-stress", "city-day"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list missing scenario %q:\n%s", name, out.String())
		}
	}
}

// TestFlagValidation: bad values are rejected with clear errors before
// any request is made (the addr points nowhere).
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scenario", "no-such-thing"}, "unknown scenario"},
		{[]string{"-duration", "-3s"}, "must be non-negative"},
		{[]string{"-duration", "10ms"}, "under one virtual slot"},
		{[]string{"-addr", ""}, "-addr"},
		{[]string{"-mode", "sideways"}, "-mode"},
		{[]string{"-mode", "open", "-rate", "0"}, "-rate"},
		{[]string{"-mode", "open", "-rate", "-2"}, "-rate"},
		{[]string{"-mode", "open", "-clients", "0"}, "-clients"},
	} {
		var out bytes.Buffer
		err := run(context.Background(), tc.args, &out)
		if err == nil {
			t.Errorf("run(%v) accepted bad flags", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) error %q does not mention %q", tc.args, err, tc.want)
		}
	}
}
