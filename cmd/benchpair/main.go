// Command benchpair compares two checkouts of the repository on the
// benchmark: it runs each side's perfbench (through that side's
// perfbench/run.sh, which builds it from that side's source) for a
// number of seeds per workload, alternating which side runs first, and
// writes the end-to-end metrics of every run with each side's median
// and quartiles, the change's win count, the parent's spread and the
// metric's BENCHMARK.json bound to BENCH_<label>.json.
//
// Usage, from the repository root, with the parent commit checked out
// in a second directory:
//
//	git clone -q . /tmp/parent && git -C /tmp/parent checkout -q HEAD~1
//	go run ./cmd/benchpair -base /tmp/parent -head . -label mychange \
//	    -workloads ingest-steady -pairs 10 -seconds 20
//
// Pair i runs seed -seed+i on both sides, the parent first in even
// pairs and the change first in odd ones. The workloads and metrics
// come from the change's BENCHMARK.json. benchpair exits non-zero when
// any run reports "correct": false or failed requests, after writing
// the file.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

// benchmarkSpec is the part of BENCHMARK.json benchpair reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runResult is perfbench's last output line.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func run(args []string, log io.Writer) error {
	fs := flag.NewFlagSet("benchpair", flag.ContinueOnError)
	base := fs.String("base", "", "checkout of the parent commit (required)")
	head := fs.String("head", ".", "checkout of the change")
	label := fs.String("label", "", "report label: the output is BENCH_<label>.json (required)")
	list := fs.String("workloads", "", "comma-separated workloads (default: every workload in BENCHMARK.json)")
	pairs := fs.Int("pairs", 10, "pairs of runs per workload")
	seed := fs.Int64("seed", 1, "seed of the first pair; pair i uses seed+i")
	seconds := fs.Float64("seconds", 20, "perfbench --seconds for every run")
	out := fs.String("o", "", "output file (default BENCH_<label>.json in the current directory)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" || *label == "" {
		return errors.New("-base and -label are required")
	}
	if *pairs < 1 {
		return fmt.Errorf("-pairs must be positive, got %d", *pairs)
	}
	if *out == "" {
		*out = "BENCH_" + *label + ".json"
	}
	spec, err := readSpec(filepath.Join(*head, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	workloads := strings.Split(*list, ",")
	if *list == "" {
		workloads = workloads[:0]
		for _, w := range spec.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	rep := report{
		Label:   *label,
		Machine: machine(*head),
		Base:    checkout(*base),
		Head:    checkout(*head),
		Seconds: *seconds,
	}
	var bad []string
	for _, w := range workloads {
		var runs []pairRuns
		for i := 0; i < *pairs; i++ {
			s := *seed + int64(i)
			p := pairRuns{Seed: s, HeadFirst: i%2 == 1}
			order := []*runResult{&p.Base, &p.Head}
			dirs := []string{*base, *head}
			if p.HeadFirst {
				order[0], order[1] = order[1], order[0]
				dirs[0], dirs[1] = dirs[1], dirs[0]
			}
			for k, dir := range dirs {
				res, err := perfbench(dir, w, s, *seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d in %s: %w", w, s, dir, err)
				}
				*order[k] = *res
				if !res.Correct || res.Failed > 0 {
					bad = append(bad, fmt.Sprintf("%s seed %d in %s: correct=%v failed=%d", w, s, dir, res.Correct, res.Failed))
				}
			}
			fmt.Fprintf(log, "%s seed %d: base %s | head %s\n", w, s, brief(p.Base, spec.EndToEnd), brief(p.Head, spec.EndToEnd))
			runs = append(runs, p)
		}
		rep.Workloads = append(rep.Workloads, summarize(w, spec.EndToEnd, runs))
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d runs incorrect or with failed requests:\n%s", len(bad), strings.Join(bad, "\n"))
	}
	return nil
}

// readSpec reads the workloads and end-to-end metrics of a
// BENCHMARK.json.
func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// perfbench runs one benchmark run in dir and parses its last output
// line. A run that exits non-zero but printed a result (an incorrect
// output) returns the result.
func perfbench(dir, workload string, seed int64, seconds float64) (*runResult, error) {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%w: %s", runErr, strings.TrimSpace(stderr.String()))
		}
		return nil, fmt.Errorf("parsing the last output line: %w", err)
	}
	return &res, nil
}

// brief formats a run's end-to-end metrics for the progress log.
func brief(r runResult, ms []metricSpec) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, " %s=%.4g", m.Name, r.Metrics[m.Name].Value)
	}
	return b.String()
}

// machine describes the host the runs share.
func machine(dir string) machineInfo {
	m := machineInfo{CPUs: runtime.NumCPU(), OSArch: runtime.GOOS + "/" + runtime.GOARCH}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	m.Go = output(dir, "go", "env", "GOVERSION")
	return m
}

// checkout identifies the commit checked out in dir, hashes its
// working-tree diff when tracked files differ from it, and counts its
// Go lines over the tracked and untracked, not ignored, files.
func checkout(dir string) checkoutInfo {
	c := checkoutInfo{
		Commit: output(dir, "git", "rev-parse", "HEAD"),
		Dirty:  output(dir, "git", "status", "--porcelain", "--untracked-files=no") != "",
	}
	if c.Dirty {
		c.DiffSHA256 = diffHash([]byte(output(dir, "git", "diff", "HEAD")))
	}
	files := output(dir, "git", "ls-files", "--cached", "--others", "--exclude-standard", "--", "*.go")
	c.GoLines = countGoLines(os.DirFS(dir), strings.Split(files, "\n"))
	return c
}

// output is a command's trimmed standard output, empty when it fails.
func output(dir, name string, args ...string) string {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
