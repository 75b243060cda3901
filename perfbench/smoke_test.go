package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the smoke test checks the output
// against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// tiny shrinks a workload so a run takes a fraction of a second.
func tiny(c config) config {
	c.offers = 640
	c.churn = min(c.churn, 5)
	c.batch = min(c.batch, 40)
	c.measuresEvery = min(c.measuresEvery, 2)
	c.setups, c.reopens, c.snapshotEvery = 2, 2, 500
	c.minRounds, c.minSecondary, c.checkEvery = 3, 2, 2
	return c
}

// TestWorkloadsSmoke runs every workload of BENCHMARK.json at a tiny
// size in both modes and checks that the correctness checks pass, no
// request fails, and the output holds exactly the metrics the file
// names, each with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		cfg, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		for trace, want := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
			r := &runner{cfg: tiny(cfg), seed: 7, budget: 300 * time.Millisecond, dir: t.TempDir(), ops: &opCounts{}}
			var got metrics
			if trace == 1 {
				got, err = r.traced(filepath.Join(r.dir, "spans.json"))
			} else {
				got, err = r.endToEnd()
			}
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			if r.ops.attempted == 0 || r.ops.refused+r.ops.failed != 0 {
				t.Errorf("%s trace=%d: %d requests attempted, %d refused, %d failed",
					w.Name, trace, r.ops.attempted, r.ops.refused, r.ops.failed)
			}
			for _, m := range want {
				g, ok := got[m.Name]
				if !ok || g.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v), want unit %s", w.Name, trace, m.Name, g, ok, m.Unit)
				}
			}
			if len(got) != len(want) {
				var names []string
				for name := range got {
					names = append(names, name)
				}
				sort.Strings(names)
				t.Errorf("%s trace=%d: got %d metrics %v, BENCHMARK.json names %d", w.Name, trace, len(got), names, len(want))
			}
		}
	}
}
