package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	flex "flexmeasures"
)

// FuzzScheduleQuery feeds arbitrary raw query strings to the query
// parsers /v1/schedule, /v1/aggregate, /v1/measures and /v1/offers
// share. Each either parses, to the default when the parameter is
// absent or empty and to the parameter's integer value otherwise, or
// fails with an error whose 400 body names it, and none panics.
func FuzzScheduleQuery(f *testing.F) {
	f.Add("horizon=72&est=3&target=100&cap=50&mode=collect")
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{URL: &url.URL{RawQuery: raw}}
		q := r.URL.Query()
		checkInt := func(key string, def int64, got int64, err error) {
			t.Helper()
			if err != nil {
				checkBadRequest(t, err, strconv.Quote(key))
				return
			}
			want := def
			if v := q.Get(key); v != "" {
				n, perr := strconv.ParseInt(v, 10, 64)
				if perr != nil {
					t.Fatalf("%q: %s=%q parsed to %d, ParseInt fails: %v", raw, key, v, got, perr)
				}
				want = n
			}
			if got != want {
				t.Fatalf("%q: %s parsed to %d, want %d", raw, key, got, want)
			}
		}
		for _, c := range []struct {
			key string
			def int
		}{{"horizon", 48}, {"n", 0}, {"est", 2}, {"tft", -1}, {"max-group", 0}} {
			n, err := qInt(r, c.key, c.def)
			checkInt(c.key, int64(c.def), int64(n), err)
		}
		for _, c := range []struct {
			key string
			def int64
		}{{"target", -1}, {"cap", 0}} {
			n, err := qInt64(r, c.key, c.def)
			checkInt(c.key, c.def, n, err)
		}

		gp, err := groupingFromQuery(r)
		if err != nil {
			checkBadRequest(t, err, "parameter ")
		} else {
			est, _ := qInt(r, "est", 2)
			tft, _ := qInt(r, "tft", -1)
			size, _ := qInt(r, "max-group", 0)
			if want := (flex.GroupParams{ESTTolerance: est, TFTolerance: tft, MaxGroupSize: size}); gp != want {
				t.Fatalf("%q: grouping %+v, want %+v", raw, gp, want)
			}
		}

		mode, err := modeFromQuery(r)
		switch v := q.Get("mode"); {
		case err != nil:
			if v == "" || v == "first" || v == "collect" {
				t.Fatalf("%q: mode %q refused: %v", raw, v, err)
			}
			checkBadRequest(t, err, "mode")
		case v == "collect":
			if mode != flex.CollectAll {
				t.Fatalf("%q: mode %q parsed to %v", raw, v, mode)
			}
		case v == "" || v == "first":
			if mode != flex.FirstError {
				t.Fatalf("%q: mode %q parsed to %v", raw, v, mode)
			}
		default:
			t.Fatalf("%q: mode %q accepted as %v", raw, v, mode)
		}
	})
}

// checkBadRequest writes err as the handlers do and checks the 400
// body carries its text, which names the parameter by mention.
func checkBadRequest(t *testing.T, err error, mention string) {
	t.Helper()
	if !strings.Contains(err.Error(), mention) {
		t.Fatalf("error %q does not name %s", err, mention)
	}
	rec := httptest.NewRecorder()
	writeError(rec, http.StatusBadRequest, err.Error(), nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	var body ErrorResponse
	if derr := DecodeResponse(rec.Body, &body); derr != nil {
		t.Fatalf("400 body %q: %v", rec.Body.String(), derr)
	}
	if body.Error != err.Error() || body.Records != nil {
		t.Fatalf("400 body %+v, want error %q", body, err)
	}
}
