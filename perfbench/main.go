// Command perfbench is flexmeasures' benchmark: it boots flexd in
// process (server.NewSharded over flex.NewSharded, a WAL store with
// -fsync always, two shards), drives one of three workloads against it
// from a closed-loop client, checks every sampled output against an
// independent oracle, and prints the workload's metrics.
//
//	go run . --workload dispatch-churn --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics a flexd user sees;
// with --trace 1 it reports per-layer metrics from a run that replays
// the workload's operations through the layers' public functions with
// spans around each call, plus flexd's own stage histograms from a
// traced server. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Run it through run.sh
// from the repository root, which builds it first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// result is the benchmark's final output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// errMismatch marks an output that differs from its oracle.
var errMismatch = errors.New("output mismatch")

func main() {
	res, err := run(os.Args[1:])
	if res != nil {
		names := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := res.Metrics[name]
			fmt.Printf("%-34s %14.4f %s\n", name, m.Value, m.Unit)
		}
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses the flags, runs the workload and returns its result. A
// correctness failure returns both the result (correct=false) and the
// error; any other failure returns no result.
func run(args []string) (*result, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: dispatch-churn, dispatch-dense or ingest-steady")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	work := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for WAL data and span dumps")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg, ok := workloads[*name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return nil, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	dir := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	budget := time.Duration(*seconds * float64(time.Second))
	r := &runner{cfg: cfg, seed: *seed, budget: budget, dir: dir, ops: &opCounts{}}
	var m metrics
	var err error
	if *trace == 1 {
		m, err = r.traced(filepath.Join(*work, fmt.Sprintf("spans-%s-seed%d.json", cfg.name, *seed)))
	} else {
		m, err = r.endToEnd()
	}
	if err != nil && !errors.Is(err, errMismatch) {
		return nil, err
	}
	return &result{
		Correct:   err == nil,
		Attempted: r.ops.attempted,
		Failed:    r.ops.refused + r.ops.failed,
		Metrics:   m,
	}, err
}
