package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"path"
	"strings"

	"flexmeasures/internal/stats"
)

// report is the content of BENCH_<label>.json.
type report struct {
	Label     string           `json:"label"`
	Machine   machineInfo      `json:"machine"`
	Base      checkoutInfo     `json:"base"`
	Head      checkoutInfo     `json:"head"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadReport `json:"workloads"`
}

// machineInfo stamps the host every run shared.
type machineInfo struct {
	CPUs     int    `json:"cpus"`
	CPUModel string `json:"cpu_model"`
	Go       string `json:"go"`
	OSArch   string `json:"os_arch"`
}

// checkoutInfo identifies one side: its commit, whether tracked files
// differed from it and, if so, a hash of the difference, and the
// side's size in Go lines.
type checkoutInfo struct {
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty"`
	// DiffSHA256 is diffHash of the side's `git diff HEAD` when it is
	// dirty: two runs with equal commits and hashes built the same
	// tracked source.
	DiffSHA256 string  `json:"diff_sha256,omitempty"`
	GoLines    goLines `json:"go_lines"`
}

// goLines counts a side's Go source lines outside perfbench/, which is
// its own module: Production excludes _test.go files, Total does not.
type goLines struct {
	Production int `json:"production"`
	Total      int `json:"total"`
}

// diffHash is the hex SHA-256 of a working-tree diff.
func diffHash(diff []byte) string {
	sum := sha256.Sum256(diff)
	return hex.EncodeToString(sum[:])
}

// countGoLines counts the lines of the .go files among paths (slash
// separated, relative to fsys) outside perfbench/. A final line without
// a newline counts; files that cannot be read (listed but deleted) are
// skipped.
func countGoLines(fsys fs.FS, paths []string) goLines {
	var n goLines
	for _, p := range paths {
		if path.Ext(p) != ".go" || p == "perfbench" || strings.HasPrefix(p, "perfbench/") {
			continue
		}
		data, err := fs.ReadFile(fsys, p)
		if err != nil {
			continue
		}
		lines := bytes.Count(data, []byte{'\n'})
		if len(data) > 0 && data[len(data)-1] != '\n' {
			lines++
		}
		n.Total += lines
		if !strings.HasSuffix(p, "_test.go") {
			n.Production += lines
		}
	}
	return n
}

// pairRuns is one pair: both sides' runs of one seed.
type pairRuns struct {
	Seed       int64
	HeadFirst  bool
	Base, Head runResult
}

// workloadReport is one workload's pairs and per-metric comparison.
type workloadReport struct {
	Name    string         `json:"name"`
	Pairs   []pairSummary  `json:"pairs"`
	Metrics []metricReport `json:"metrics"`
}

// pairSummary records a pair's seed, order and outcome.
type pairSummary struct {
	Seed       int64 `json:"seed"`
	HeadFirst  bool  `json:"head_first"`
	BaseOK     bool  `json:"base_correct"`
	HeadOK     bool  `json:"head_correct"`
	BaseFailed int   `json:"base_failed"`
	HeadFailed int   `json:"head_failed"`
}

// metricReport compares one end-to-end metric over a workload's pairs.
type metricReport struct {
	metricSpec
	Base sideStats `json:"base"`
	Head sideStats `json:"head"`
	// HeadWins counts the pairs where the change read better than the
	// parent; ties count for neither side.
	HeadWins int `json:"head_wins"`
	Ties     int `json:"ties"`
	// BaseIQR is the parent's spread, Q3 − Q1.
	BaseIQR float64 `json:"base_iqr"`
	// Ratio is the change's median over the parent's.
	Ratio float64 `json:"ratio"`
	// Gain: the change won at least 9 of every 10 pairs and its median
	// is better than the parent's by more than BaseIQR.
	Gain bool `json:"gain"`
	// Regressed: the change's median is worse than the parent's by
	// more than Bound, as a fraction of the parent's median.
	Regressed bool `json:"regressed"`
}

// sideStats is one side's values in pair order with their median and
// quartiles.
type sideStats struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// summarize compares both sides of a workload's pairs on every metric
// in ms.
func summarize(name string, ms []metricSpec, runs []pairRuns) workloadReport {
	w := workloadReport{Name: name}
	for _, p := range runs {
		w.Pairs = append(w.Pairs, pairSummary{
			Seed: p.Seed, HeadFirst: p.HeadFirst,
			BaseOK: p.Base.Correct, HeadOK: p.Head.Correct,
			BaseFailed: p.Base.Failed, HeadFailed: p.Head.Failed,
		})
	}
	for _, m := range ms {
		base := make([]float64, len(runs))
		head := make([]float64, len(runs))
		for i, p := range runs {
			base[i] = p.Base.Metrics[m.Name].Value
			head[i] = p.Head.Metrics[m.Name].Value
		}
		w.Metrics = append(w.Metrics, compare(m, base, head))
	}
	return w
}

// compare computes the comparison of one metric from the pairs'
// values, base[i] and head[i] being pair i.
func compare(m metricSpec, base, head []float64) metricReport {
	r := metricReport{metricSpec: m, Base: side(base), Head: side(head)}
	sign := 1.0 // better = lower
	if m.Better == "higher" {
		sign = -1
	}
	for i := range base {
		switch d := sign * (head[i] - base[i]); {
		case d < 0:
			r.HeadWins++
		case d == 0:
			r.Ties++
		}
	}
	r.BaseIQR = r.Base.Q3 - r.Base.Q1
	if r.Base.Median != 0 {
		r.Ratio = r.Head.Median / r.Base.Median
	}
	gainBy := sign * (r.Base.Median - r.Head.Median)
	r.Gain = len(base) > 0 && 10*r.HeadWins >= 9*len(base) && gainBy > r.BaseIQR
	r.Regressed = -gainBy > m.Bound*r.Base.Median
	return r
}

// side is xs with its median and quartiles (linear interpolation
// between order statistics); all zero for an empty sample.
func side(xs []float64) sideStats {
	s := sideStats{Values: xs}
	if len(xs) == 0 {
		return s
	}
	// Percentile fails only on an empty sample or a rank outside
	// [0, 100].
	s.Q1, _ = stats.Percentile(xs, 25)
	s.Median, _ = stats.Percentile(xs, 50)
	s.Q3, _ = stats.Percentile(xs, 75)
	return s
}
