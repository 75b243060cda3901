package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	flex "flexmeasures"
	"flexmeasures/internal/server"
)

// fakeClock is a pusher sleep that records waits instead of taking
// them.
type fakeClock struct{ waits []time.Duration }

func (c *fakeClock) sleep(ctx context.Context, d time.Duration) error {
	c.waits = append(c.waits, d)
	return ctx.Err()
}

// noJitter pins the jitter factor to 1 so waits are exact.
func noJitter() float64 { return 1 }

// retryServer answers fail requests with status (plus Retry-After when
// set), then succeeds.
func retryServer(t *testing.T, fail int, status int, retryAfter string) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/offers" {
			t.Errorf("unexpected request %s %s", r.Method, r.URL)
		}
		if int(calls.Add(1)) <= fail {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(status)
			fmt.Fprintln(w, `{"error":"busy"}`)
			return
		}
		fmt.Fprintln(w, `{"ingested":7,"replaced":0,"stored":7}`)
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func TestPushRetriesBackpressure(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		srv, calls := retryServer(t, 2, status, "")
		clock := &fakeClock{}
		res, tries, err := pushOffers(context.Background(), srv.Client(), srv.URL, "", []byte("{}\n"),
			pusher{attempts: 5, base: time.Second, sleep: clock.sleep, jitter: noJitter})
		if err != nil {
			t.Fatalf("status %d: %v", status, err)
		}
		if res.Ingested != 7 || tries != 3 || calls.Load() != 3 {
			t.Fatalf("status %d: res %+v, tries %d, calls %d", status, res, tries, calls.Load())
		}
		// Exponential: 1s then 2s (jitter pinned to 1).
		if len(clock.waits) != 2 || clock.waits[0] != time.Second || clock.waits[1] != 2*time.Second {
			t.Fatalf("status %d: waits %v", status, clock.waits)
		}
	}
}

func TestPushHonorsRetryAfter(t *testing.T) {
	srv, _ := retryServer(t, 1, http.StatusServiceUnavailable, "30")
	clock := &fakeClock{}
	_, tries, err := pushOffers(context.Background(), srv.Client(), srv.URL, "", []byte("{}\n"),
		pusher{attempts: 3, base: time.Second, max: time.Hour, sleep: clock.sleep, jitter: noJitter})
	if err != nil || tries != 2 {
		t.Fatalf("push: tries %d, err %v", tries, err)
	}
	if len(clock.waits) != 1 || clock.waits[0] != 30*time.Second {
		t.Fatalf("Retry-After ignored: waits %v", clock.waits)
	}
}

func TestPushRetryAfterCapped(t *testing.T) {
	srv, _ := retryServer(t, 1, http.StatusServiceUnavailable, "3600")
	clock := &fakeClock{}
	_, _, err := pushOffers(context.Background(), srv.Client(), srv.URL, "", []byte("{}\n"),
		pusher{attempts: 3, base: time.Second, max: 10 * time.Second, sleep: clock.sleep, jitter: noJitter})
	if err != nil {
		t.Fatal(err)
	}
	if len(clock.waits) != 1 || clock.waits[0] != 10*time.Second {
		t.Fatalf("hour-long Retry-After not capped: waits %v", clock.waits)
	}
}

func TestPushGivesUp(t *testing.T) {
	srv, calls := retryServer(t, 100, http.StatusTooManyRequests, "")
	clock := &fakeClock{}
	_, tries, err := pushOffers(context.Background(), srv.Client(), srv.URL, "", []byte("{}\n"),
		pusher{attempts: 4, base: time.Millisecond, sleep: clock.sleep, jitter: noJitter})
	if err == nil || !strings.Contains(err.Error(), "giving up after 4 attempts") {
		t.Fatalf("err = %v", err)
	}
	if tries != 4 || calls.Load() != 4 {
		t.Fatalf("tries %d, calls %d, want 4", tries, calls.Load())
	}
}

func TestPushDoesNotRetryClientErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprintln(w, `{"error":"record 3: bad offer"}`)
	}))
	defer srv.Close()
	_, tries, err := pushOffers(context.Background(), srv.Client(), srv.URL, "", []byte("{}\n"),
		pusher{attempts: 5, sleep: (&fakeClock{}).sleep, jitter: noJitter})
	if err == nil || tries != 1 {
		t.Fatalf("bad request retried: tries %d, err %v", tries, err)
	}
	if !strings.Contains(err.Error(), "bad offer") {
		t.Fatalf("server message lost: %v", err)
	}
}

func TestPushCancellable(t *testing.T) {
	srv, _ := retryServer(t, 100, http.StatusServiceUnavailable, "")
	ctx, cancel := context.WithCancel(context.Background())
	waited := false
	sleep := func(ctx context.Context, d time.Duration) error {
		waited = true
		cancel() // the user hits ^C mid-backoff
		return ctx.Err()
	}
	_, _, err := pushOffers(ctx, srv.Client(), srv.URL, "", []byte("{}\n"),
		pusher{attempts: 10, sleep: sleep, jitter: noJitter})
	if !errors.Is(err, context.Canceled) || !waited {
		t.Fatalf("cancel during backoff: err %v, waited %t", err, waited)
	}
}

func TestPushRetriesTransportErrors(t *testing.T) {
	// A server that dies after the first refusal: the port stops
	// answering, which must also be retried — and eventually given up.
	srv, _ := retryServer(t, 100, http.StatusServiceUnavailable, "")
	srv.Close()
	_, tries, err := pushOffers(context.Background(), srv.Client(), srv.URL, "", []byte("{}\n"),
		pusher{attempts: 3, base: time.Millisecond, sleep: (&fakeClock{}).sleep, jitter: noJitter})
	if err == nil || tries != 3 {
		t.Fatalf("dead server: tries %d, err %v", tries, err)
	}
}

// TestPushAgainstRealServer exercises the full ingest path: push to a
// live flexd handler and check the decoded response.
func TestPushAgainstRealServer(t *testing.T) {
	eng := flex.New(flex.WithWorkers(2), flex.WithSafe(true))
	defer eng.Close()
	srv := httptest.NewServer(server.NewSharded(eng, server.Options{}))
	defer srv.Close()
	body := []byte(`{"id":"a","earliestStart":0,"latestStart":2,"slices":[{"min":0,"max":4}]}` + "\n")
	res, tries, err := pushOffers(context.Background(), srv.Client(), srv.URL, "collect", body,
		pusher{attempts: 3, sleep: (&fakeClock{}).sleep, jitter: noJitter})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingested != 1 || res.Stored != 1 || tries != 1 {
		t.Fatalf("push result %+v, tries %d", res, tries)
	}
}
