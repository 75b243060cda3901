package main

import (
	"math"
	"testing"
	"testing/fstest"
)

// TestSideStats pins the median and quartiles to linear interpolation
// between order statistics, on samples of odd and even size given out
// of order.
func TestSideStats(t *testing.T) {
	for _, c := range []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{3, 1}, 1.5, 2, 2.5},
		{[]float64{5, 1, 4, 2, 3}, 2, 3, 4},
		{[]float64{10, 40, 20, 30}, 17.5, 25, 32.5},
		{[]float64{46, 44, 51, 45, 49, 47, 60, 48, 43, 50}, 45.25, 47.5, 49.75},
	} {
		s := side(c.xs)
		if s.Q1 != c.q1 || s.Median != c.median || s.Q3 != c.q3 {
			t.Errorf("side(%v) = q1 %v, median %v, q3 %v; want %v, %v, %v",
				c.xs, s.Q1, s.Median, s.Q3, c.q1, c.median, c.q3)
		}
	}
	if s := side(nil); s.Median != 0 || s.Q1 != 0 || s.Q3 != 0 {
		t.Errorf("side(nil) = %+v, want zeros", s)
	}
}

// TestCompare pins wins, ties, the parent's IQR, the ratio and the
// gain and regression verdicts for both metric directions.
func TestCompare(t *testing.T) {
	lower := metricSpec{Name: "measures_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25}
	base := []float64{46, 44, 51, 45, 49, 47, 60, 48, 43, 50}
	head := []float64{34, 33, 36, 35, 52, 34, 38, 35, 33, 36}
	r := compare(lower, base, head)
	if r.HeadWins != 9 || r.Ties != 0 {
		t.Errorf("wins, ties = %d, %d; want 9, 0", r.HeadWins, r.Ties)
	}
	if r.BaseIQR != 4.5 {
		t.Errorf("base IQR = %v, want 4.5", r.BaseIQR)
	}
	if want := 35 / 47.5; math.Abs(r.Ratio-want) > 1e-12 {
		t.Errorf("ratio = %v, want %v", r.Ratio, want)
	}
	if !r.Gain || r.Regressed {
		t.Errorf("gain, regressed = %v, %v; want true, false", r.Gain, r.Regressed)
	}

	// 8 wins of 10 is no gain, however large the difference.
	head8 := append([]float64(nil), head...)
	head8[0] = 46
	if r := compare(lower, base, head8); r.HeadWins != 8 || r.Ties != 1 || r.Gain {
		t.Errorf("8 wins and a tie: wins %d, ties %d, gain %v", r.HeadWins, r.Ties, r.Gain)
	}
	// Every pair won by less than the parent's IQR is no gain either.
	close := make([]float64, len(base))
	for i, v := range base {
		close[i] = v - 1
	}
	if r := compare(lower, base, close); r.HeadWins != 10 || r.Gain {
		t.Errorf("wins by 1 under an IQR of 4.5: wins %d, gain %v", r.HeadWins, r.Gain)
	}
	// Worse by more than the bound is a regression.
	worse := make([]float64, len(base))
	for i, v := range base {
		worse[i] = v * 1.3
	}
	if r := compare(lower, base, worse); !r.Regressed || r.HeadWins != 0 {
		t.Errorf("30%% worse under a 25%% bound: regressed %v, wins %d", r.Regressed, r.HeadWins)
	}

	// For a higher-is-better metric the directions flip.
	higher := metricSpec{Name: "ratio", Better: "higher", Bound: 0.1}
	if r := compare(higher, []float64{1, 1, 1}, []float64{0.8, 0.8, 0.8}); !r.Regressed || r.HeadWins != 0 {
		t.Errorf("higher-is-better drop of 20%%: regressed %v, wins %d", r.Regressed, r.HeadWins)
	}
	if r := compare(higher, []float64{1, 1, 1}, []float64{2, 2, 2}); r.Regressed || r.HeadWins != 3 || !r.Gain {
		t.Errorf("higher-is-better doubling: regressed %v, wins %d, gain %v", r.Regressed, r.HeadWins, r.Gain)
	}
}

// TestSummarize checks that a workload's runs are read per metric in
// pair order, and that pair outcomes are kept.
func TestSummarize(t *testing.T) {
	res := func(ok bool, failed int, v float64) runResult {
		r := runResult{Correct: ok, Failed: failed, Metrics: map[string]struct {
			Value float64 `json:"value"`
		}{}}
		r.Metrics["m"] = struct {
			Value float64 `json:"value"`
		}{v}
		return r
	}
	runs := []pairRuns{
		{Seed: 1, Base: res(true, 0, 10), Head: res(true, 0, 8)},
		{Seed: 2, HeadFirst: true, Base: res(true, 0, 12), Head: res(false, 3, 9)},
	}
	w := summarize("ingest-steady", []metricSpec{{Name: "m", Better: "lower"}}, runs)
	if len(w.Pairs) != 2 || w.Pairs[1].HeadOK || w.Pairs[1].HeadFailed != 3 || !w.Pairs[1].HeadFirst {
		t.Errorf("pairs = %+v", w.Pairs)
	}
	m := w.Metrics[0]
	if got := m.Base.Values; len(got) != 2 || got[0] != 10 || got[1] != 12 {
		t.Errorf("base values = %v, want [10 12]", got)
	}
	if got := m.Head.Values; len(got) != 2 || got[0] != 8 || got[1] != 9 {
		t.Errorf("head values = %v, want [8 9]", got)
	}
	if m.HeadWins != 2 {
		t.Errorf("wins = %d, want 2", m.HeadWins)
	}
}

// TestDiffHash pins the diff hash to the SHA-256 of the diff's bytes,
// so two reports can be matched to the same working tree.
func TestDiffHash(t *testing.T) {
	for diff, want := range map[string]string{
		"":    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"abc": "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
	} {
		if got := diffHash([]byte(diff)); got != want {
			t.Errorf("diffHash(%q) = %s, want %s", diff, got, want)
		}
	}
}

// TestCountGoLines counts production and test lines on a fixed tree:
// perfbench/ and non-Go files are left out, a last line without a
// newline counts, and a listed file that is gone is skipped.
func TestCountGoLines(t *testing.T) {
	fsys := fstest.MapFS{
		"engine.go":                {Data: []byte("package flex\n\nfunc f() {}\n")},
		"engine_test.go":           {Data: []byte("package flex\n\nfunc TestF(t *testing.T) {}")},
		"internal/grid/grid.go":    {Data: []byte("package grid\n")},
		"perfbench/main.go":        {Data: []byte("package main\n\n\n")},
		"perfbench/smoke_test.go":  {Data: []byte("package main\n")},
		"README.md":                {Data: []byte("# flex\n\n")},
		"internal/grid/empty.go":   {Data: nil},
		"cmd/benchpair/report.go":  {Data: []byte("a\nb\nc\nd\n")},
		"perfbenchmark/helpers.go": {Data: []byte("x\n")},
	}
	paths := []string{"engine.go", "engine_test.go", "internal/grid/grid.go", "perfbench/main.go",
		"perfbench/smoke_test.go", "README.md", "internal/grid/empty.go", "cmd/benchpair/report.go",
		"perfbenchmark/helpers.go", "deleted.go", ""}
	got := countGoLines(fsys, paths)
	if want := (goLines{Production: 3 + 1 + 4 + 1, Total: 3 + 3 + 1 + 4 + 1}); got != want {
		t.Errorf("countGoLines = %+v, want %+v", got, want)
	}
}
