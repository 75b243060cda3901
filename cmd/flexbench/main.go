// Command flexbench regenerates every table and figure of "Measuring and
// Comparing Energy Flexibilities" (Valsomatzis et al., EDBT/ICDT
// Workshops 2015) and the extended experiments, printing paper-vs-
// measured comparison tables. EXPERIMENTS.md is this program's archived
// output.
//
// Usage:
//
//	flexbench              # run every experiment
//	flexbench -exp F7      # run one experiment
//	flexbench -list        # list experiment IDs
//	flexbench -check       # exit non-zero if any value mismatches the paper
//
// Beyond the paper artefacts, -agg times the serial aggregation pipeline
// against the parallel one on a synthetic population and verifies that
// both produce identical aggregates:
//
//	flexbench -agg 100000             # serial vs parallel, one worker per CPU
//	flexbench -agg 100000 -workers 4  # pin the worker-pool size
//
// -sched does the same for the scheduling hot path: it times the legacy
// full-recompute candidate evaluator against the incremental delta
// evaluator (verifying identical schedules), then the materialized
// aggregate→schedule→disaggregate batch against the streaming pipeline
// (verifying identical output again):
//
// and finally the full engine pipeline with tracing absent, disabled
// and enabled (interleaved best-of-3), pinning both the overhead and
// that tracing never changes a schedule:
//
//	flexbench -sched 1000             # legacy vs incremental + batch vs streaming + tracing overhead
//	flexbench -sched 1000 -workers 4  # pin the pipeline worker-pool size
//	flexbench -sched 1000 -trace      # also print the recorded span tree
//
// -engine measures what the Engine's persistent worker pool buys over
// the legacy execution model, which spun a goroutine pool up and down
// on every call: both run the same repeated aggregation batches, one
// through per-call spin-up, one through one long-lived flex.Engine
// (verifying identical aggregates):
//
//	flexbench -engine 2000            # repeated batches, spin-up vs persistent pool
//	flexbench -engine 2000 -workers 4 # pin the pool size
//
// -ingest measures the flexd service's sharded NDJSON decoder against
// the serial line-by-line decoder on the same encoded population
// (verifying identical offers):
//
//	flexbench -ingest 100000            # serial vs sharded decode
//	flexbench -ingest 100000 -workers 4 # pin the decode shard count
//
// -group measures the pipeline's entry stage: the serial threshold
// grouper (sort + greedy pack) against the parallel sharded grouper
// (internal/grouping), verifying bit-identical groups:
//
//	flexbench -group 100000             # serial vs sharded grouping
//	flexbench -group 100000 -workers 4  # pin the grouping worker count
//
// -scatter sweeps the sharded engine's scatter-gather pipeline over
// shard counts 1/2/4/8, verifying each one reproduces the one-shard
// pipeline bit for bit:
//
//	flexbench -scatter 20000            # shard sweep, one worker per CPU per shard
//	flexbench -scatter 20000 -workers 2 # pin the per-shard pool size
//
// -churn measures incremental continuous scheduling (flexd's
// -incremental path): a fleet is ingested once, then re-scheduled
// round after round while a small fraction of offers is re-submitted
// between rounds — the steady-state traffic of a live aggregator. Each
// round runs both a persistent WithIncremental engine, whose
// content-addressed cache survives from round to round, and a
// stateless full recompute of the same snapshot, verifying the results
// are identical before comparing the times:
//
//	flexbench -churn 20000            # steady-state churn rounds, incremental vs full
//	flexbench -churn 20000 -workers 4 # pin the per-shard pool size
//
// -replay measures the durable store (internal/persist): WAL append
// throughput under each fsync policy, then boot-time replay of the
// resulting log, serial vs fanned out across the worker pool
// (verifying the replayed store matches the live one bit for bit):
//
//	flexbench -replay 100000            # append per fsync policy + replay timing
//	flexbench -replay 100000 -workers 4 # pin the replay decode pool
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	flex "flexmeasures"
	"flexmeasures/internal/aggregate"
	"flexmeasures/internal/buildinfo"
	"flexmeasures/internal/experiments"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/grouping"
	"flexmeasures/internal/ingest"
	"flexmeasures/internal/obs"
	"flexmeasures/internal/persist"
	"flexmeasures/internal/sched"
	"flexmeasures/internal/shard"
	"flexmeasures/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flexbench", flag.ContinueOnError)
	exp := fs.String("exp", "", "run a single experiment by ID (e.g. F1, T1, X2)")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	check := fs.Bool("check", false, "fail when any measured value mismatches the paper")
	aggN := fs.Int("agg", 0, "compare serial vs parallel aggregation over N synthetic offers and exit")
	schedN := fs.Int("sched", 0, "compare legacy vs incremental scheduling and batch vs streaming pipeline over N synthetic offers and exit")
	engineN := fs.Int("engine", 0, "compare per-call pool spin-up vs the persistent Engine pool over repeated batches of N synthetic offers and exit")
	ingestN := fs.Int("ingest", 0, "compare serial vs sharded NDJSON decoding over N synthetic offers and exit")
	groupN := fs.Int("group", 0, "compare serial vs sharded grouping over N synthetic offers and exit")
	scatterN := fs.Int("scatter", 0, "sweep the scatter-gather pipeline over shard counts 1/2/4/8 on N synthetic offers and exit")
	replayN := fs.Int("replay", 0, "measure WAL append throughput per fsync policy and serial-vs-parallel replay over N synthetic offers and exit")
	churnN := fs.Int("churn", 0, "compare incremental vs full-recompute scheduling over steady-state churn rounds on N synthetic offers and exit")
	workers := fs.Int("workers", 0, "worker-pool size for -agg / -sched / -engine / -ingest / -group / -scatter / -replay / -churn (0: one per CPU)")
	trace := fs.Bool("trace", false, "with -sched: print the traced pipeline run's span-tree breakdown")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(buildinfo.String("flexbench"))
		return nil
	}
	if *churnN > 0 {
		return runChurnCompare(os.Stdout, *churnN, *workers)
	}
	if *replayN > 0 {
		return runReplayCompare(os.Stdout, *replayN, *workers)
	}
	if *scatterN > 0 {
		return runScatterCompare(os.Stdout, *scatterN, *workers)
	}
	if *aggN > 0 {
		return runAggCompare(os.Stdout, *aggN, *workers)
	}
	if *schedN > 0 {
		return runSchedCompare(os.Stdout, *schedN, *workers, *trace)
	}
	if *engineN > 0 {
		return runEngineCompare(os.Stdout, *engineN, *workers)
	}
	if *ingestN > 0 {
		return runIngestCompare(os.Stdout, *ingestN, *workers)
	}
	if *groupN > 0 {
		return runGroupCompare(os.Stdout, *groupN, *workers)
	}
	if *list {
		for _, id := range experiments.IDs() {
			doc, err := experiments.Describe(id)
			if err != nil {
				return err
			}
			fmt.Printf("%-7s %s\n", id, doc)
		}
		return nil
	}
	var results []*experiments.Result
	if *exp != "" {
		r, err := experiments.Run(*exp)
		if err != nil {
			return err
		}
		results = append(results, r)
	} else {
		rs, err := experiments.RunAll()
		if err != nil {
			return err
		}
		results = rs
	}
	failed := false
	for _, r := range results {
		fmt.Println(r.Render())
		if err := r.Check(); err != nil {
			failed = true
			fmt.Fprintln(os.Stderr, "MISMATCH:", err)
		}
	}
	if *check && failed {
		return fmt.Errorf("some measured values disagree with the paper")
	}
	return nil
}

// runAggCompare times AggregateAll against AggregateGroupsParallel on a
// reproducible synthetic population (seed 99, Scenario 1 grouping
// parameters) and fails unless the two pipelines produce identical
// aggregates in identical order.
func runAggCompare(out io.Writer, n, workers int) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	offers, err := workload.Population(rand.New(rand.NewSource(99)), n, 3, workload.DefaultMix())
	if err != nil {
		return err
	}
	gp := aggregate.GroupParams{ESTTolerance: 4, TFTolerance: -1, MaxGroupSize: 64}

	t0 := time.Now()
	serial, err := aggregate.AggregateAll(offers, gp)
	if err != nil {
		return err
	}
	serialDur := time.Since(t0)

	t0 = time.Now()
	parallel, err := aggregate.AggregateGroupsParallel(context.Background(), grouping.Group(offers, gp), aggregate.ParallelParams{Workers: workers})
	if err != nil {
		return err
	}
	parallelDur := time.Since(t0)

	if !reflect.DeepEqual(serial, parallel) {
		return fmt.Errorf("parallel aggregation diverged from serial over %d offers", n)
	}
	speedup := float64(serialDur) / float64(parallelDur)
	fmt.Fprintf(out, "aggregated %d offers into %d aggregates\n", len(offers), len(serial))
	fmt.Fprintf(out, "serial:   %v\n", serialDur)
	fmt.Fprintf(out, "parallel: %v  (%d workers, %.2fx speedup)\n", parallelDur, workers, speedup)
	fmt.Fprintln(out, "serial and parallel outputs are identical")
	return nil
}

// runEngineCompare measures the Engine's persistent-pool execution
// model against per-call goroutine spin-up: the same aggregation batch
// (seed 99, Scenario 1 grouping) is run repeatedly, once through the
// legacy model that builds and tears down a worker pool inside every
// call, once through one long-lived flex.Engine whose pool outlives
// the calls. Both must produce identical aggregates every round. The
// per-call delta is the pool setup cost the Engine removes from a
// service's request hot path.
func runEngineCompare(out io.Writer, n, workers int) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	offers, err := workload.Population(rand.New(rand.NewSource(99)), n, 3, workload.DefaultMix())
	if err != nil {
		return err
	}
	gp := aggregate.GroupParams{ESTTolerance: 4, TFTolerance: -1, MaxGroupSize: 64}
	const rounds = 50

	// Warm both paths once so first-call effects don't skew either side.
	want, err := aggregate.AggregateAll(offers, gp)
	if err != nil {
		return err
	}
	eng := flex.New(flex.WithWorkers(workers), flex.WithGrouping(gp))
	defer eng.Close()

	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		got, err := aggregate.AggregateGroupsParallel(context.Background(), grouping.Group(offers, gp),
			aggregate.ParallelParams{Workers: workers})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(want, got) {
			return fmt.Errorf("spin-up aggregation diverged in round %d", r)
		}
	}
	spinDur := time.Since(t0)

	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		got, err := eng.Aggregate(context.Background(), offers)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(want, got) {
			return fmt.Errorf("engine aggregation diverged in round %d", r)
		}
	}
	engineDur := time.Since(t0)

	fmt.Fprintf(out, "%d rounds of aggregating %d offers into %d aggregates (%d workers)\n",
		rounds, len(offers), len(want), workers)
	fmt.Fprintf(out, "per-call spin-up:  %v total, %v/call\n", spinDur, spinDur/rounds)
	fmt.Fprintf(out, "persistent engine: %v total, %v/call  (%.2fx speedup)\n",
		engineDur, engineDur/rounds, float64(spinDur)/float64(engineDur))
	fmt.Fprintln(out, "spin-up and engine outputs are identical")
	return nil
}

// runIngestCompare times the serial NDJSON decoder against the sharded
// one (flexd's ingest path) on a reproducible synthetic population
// encoded in memory, and fails unless both decode identical offers.
// The interesting number for a service is throughput: records/s and
// MB/s of NDJSON swallowed.
func runIngestCompare(out io.Writer, n, workers int) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	offers, err := workload.Population(rand.New(rand.NewSource(99)), n, 3, workload.DefaultMix())
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := flexoffer.EncodeNDJSON(&buf, offers); err != nil {
		return err
	}
	data := buf.Bytes()
	mb := float64(len(data)) / (1 << 20)

	t0 := time.Now()
	serial, err := ingest.DecodeNDJSONSerial(bytes.NewReader(data), ingest.FirstError)
	if err != nil {
		return err
	}
	serialDur := time.Since(t0)

	t0 = time.Now()
	sharded, err := ingest.DecodeNDJSON(context.Background(), bytes.NewReader(data),
		ingest.Params{Workers: workers})
	if err != nil {
		return err
	}
	shardedDur := time.Since(t0)

	if !reflect.DeepEqual(serial, sharded) {
		return fmt.Errorf("sharded decode diverged from serial over %d records", n)
	}
	rate := func(d time.Duration) (float64, float64) {
		secs := d.Seconds()
		return float64(n) / secs, mb / secs
	}
	sr, sm := rate(serialDur)
	pr, pm := rate(shardedDur)
	fmt.Fprintf(out, "decoded %d NDJSON records (%.1f MiB)\n", n, mb)
	fmt.Fprintf(out, "serial:  %v  (%.0f records/s, %.1f MB/s)\n", serialDur, sr, sm)
	fmt.Fprintf(out, "sharded: %v  (%d workers, %.0f records/s, %.1f MB/s, %.2fx speedup)\n",
		shardedDur, workers, pr, pm, float64(serialDur)/float64(shardedDur))
	fmt.Fprintln(out, "serial and sharded decodes are identical")
	return nil
}

// runGroupCompare times the serial threshold grouper against the
// parallel sharded grouper (the pipeline's entry stage) on a
// reproducible synthetic population and fails unless the two produce
// identical groups — the sharded grouper's bit-identity contract. The
// shard structure (EST gaps wider than the tolerance) is data-driven,
// so the shard count is reported alongside the timings; the comparison
// uses strict EST similarity (tolerance 0), because a dense population
// occupies every start slot and any looser tolerance forms one
// EST-connected run, where the grouper documents its fallback to a
// serial pack (only the sort and key phases stay parallel).
func runGroupCompare(out io.Writer, n, workers int) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	offers, err := workload.Population(rand.New(rand.NewSource(99)), n, 3, workload.DefaultMix())
	if err != nil {
		return err
	}
	gp := grouping.Params{ESTTolerance: 0, TFTolerance: -1, MaxGroupSize: 64}

	t0 := time.Now()
	serial := grouping.Group(offers, gp)
	serialDur := time.Since(t0)

	sharded := &grouping.Sharded{Params: gp, Workers: workers, MinOffers: -1}
	t0 = time.Now()
	parallel, err := sharded.Group(context.Background(), offers)
	if err != nil {
		return err
	}
	parallelDur := time.Since(t0)

	if !reflect.DeepEqual(serial, parallel) {
		return fmt.Errorf("sharded grouping diverged from serial over %d offers", n)
	}
	// The shard count is the number of EST gaps wider than the
	// tolerance plus one — derivable from the sorted starts without
	// re-running the grouper.
	ests := make([]int, len(offers))
	for i, f := range offers {
		ests[i] = f.EarliestStart
	}
	sort.Ints(ests)
	shards := 1
	for i := 1; i < len(ests); i++ {
		if ests[i]-ests[i-1] > gp.ESTTolerance {
			shards++
		}
	}
	speedup := float64(serialDur) / float64(parallelDur)
	fmt.Fprintf(out, "grouped %d offers into %d groups (%d shards)\n", len(offers), len(serial), shards)
	fmt.Fprintf(out, "serial:  %v\n", serialDur)
	fmt.Fprintf(out, "sharded: %v  (%d workers, %.2fx speedup)\n", parallelDur, workers, speedup)
	fmt.Fprintln(out, "serial and sharded groupings are identical")
	return nil
}

// runScatterCompare sweeps the sharded engine's scatter-gather
// pipeline over shard counts 1/2/4/8 on a reproducible synthetic
// population (seed 99, Scenario 1 grouping) and fails unless every
// shard count reproduces the one-shard pipeline result exactly —
// the bit-identity contract that lets flexd change -shards without
// changing a byte of /v1/schedule output. Zones are stamped so the
// router exercises its preferred key. On a single machine the sweep
// measures coordination overhead, not scale-out: every shard's pool
// shares the same CPUs.
func runScatterCompare(out io.Writer, n, workers int) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	rng := rand.New(rand.NewSource(99))
	offers, err := workload.Population(rng, n, 3, workload.DefaultMix())
	if err != nil {
		return err
	}
	for i, f := range offers {
		f.Zone = fmt.Sprintf("z%02d", i%7)
	}
	gp := flex.GroupParams{ESTTolerance: 4, TFTolerance: -1, MaxGroupSize: 64}
	opts := []flex.Option{flex.WithWorkers(workers), flex.WithSafe(true), flex.WithGrouping(gp)}
	horizon := 4 * workload.SlotsPerDay
	var expected int64
	for _, f := range offers {
		expected += (f.TotalMin + f.TotalMax) / 2
	}
	target := workload.WindProfile(rng, horizon, expected/int64(horizon))

	var (
		want    *flex.PipelineResult
		baseDur time.Duration
	)
	for _, shards := range []int{1, 2, 4, 8} {
		eng := flex.NewSharded(shards, opts...)
		t0 := time.Now()
		got, err := eng.Pipeline(context.Background(), offers, target)
		dur := time.Since(t0)
		eng.Close()
		if err != nil {
			return fmt.Errorf("shards=%d: %w", shards, err)
		}
		if want == nil {
			want, baseDur = got, dur
			fmt.Fprintf(out, "pipelined %d offers → %d aggregates over %d slots (%d workers/shard)\n",
				n, len(want.Aggregates), horizon, workers)
		} else if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("shards=%d: scatter-gather diverged from one shard", shards)
		}
		fmt.Fprintf(out, "shards=%d: %v  (%.2fx vs one shard)\n", shards, dur, float64(baseDur)/float64(dur))
	}
	fmt.Fprintln(out, "every shard count reproduced the one-shard pipeline exactly")
	return nil
}

// runSchedCompare exercises the scheduling hot path on a reproducible
// synthetic population (seed 99): first the legacy full-recompute
// candidate evaluator against the incremental delta evaluator on the
// raw fleet, then the materialized aggregate→schedule→disaggregate
// batch against the streaming pipeline. Both comparisons fail unless
// the outputs are identical.
func runSchedCompare(out io.Writer, n, workers int, trace bool) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	rng := rand.New(rand.NewSource(99))
	offers, err := workload.Population(rng, n, 3, workload.DefaultMix())
	if err != nil {
		return err
	}
	var expected int64
	for _, f := range offers {
		expected += (f.TotalMin + f.TotalMax) / 2
	}
	horizon := 4 * workload.SlotsPerDay
	target := workload.WindProfile(rng, horizon, expected/int64(horizon))

	t0 := time.Now()
	legacy, err := sched.Schedule(offers, target, sched.Options{FullRecompute: true})
	if err != nil {
		return err
	}
	legacyDur := time.Since(t0)

	t0 = time.Now()
	incremental, err := sched.Schedule(offers, target, sched.Options{})
	if err != nil {
		return err
	}
	incrementalDur := time.Since(t0)

	if !reflect.DeepEqual(legacy, incremental) {
		return fmt.Errorf("incremental schedule diverged from legacy over %d offers", n)
	}
	fmt.Fprintf(out, "scheduled %d offers over %d slots (imbalance %.0f)\n",
		n, horizon, incremental.Imbalance(target))
	fmt.Fprintf(out, "legacy evaluator:      %v\n", legacyDur)
	fmt.Fprintf(out, "incremental evaluator: %v  (%.2fx speedup)\n",
		incrementalDur, float64(legacyDur)/float64(incrementalDur))
	fmt.Fprintln(out, "legacy and incremental schedules are identical")

	// Batch vs streaming pipeline over the aggregated fleet.
	gp := aggregate.GroupParams{ESTTolerance: 4, TFTolerance: -1, MaxGroupSize: 64}
	t0 = time.Now()
	ags, err := aggregate.AggregateAllSafe(offers, gp)
	if err != nil {
		return err
	}
	aggOffers := make([]*flexoffer.FlexOffer, len(ags))
	for i, ag := range ags {
		aggOffers[i] = ag.Offer
	}
	batchRes, err := sched.Schedule(aggOffers, target, sched.Options{})
	if err != nil {
		return err
	}
	if _, err := aggregate.DisaggregateAllParallel(context.Background(), ags, batchRes.Assignments,
		aggregate.ParallelParams{Workers: 1}); err != nil {
		return err
	}
	batchDur := time.Since(t0)

	t0 = time.Now()
	pp := aggregate.ParallelParams{Workers: workers}
	items, groups := aggregate.AggregateGroupsSafeStream(context.Background(), grouping.Group(offers, gp), pp)
	streamRes, err := sched.ScheduleStream(context.Background(), items, groups, target, sched.Options{})
	if err != nil {
		return err
	}
	if _, err := aggregate.DisaggregateAllParallel(context.Background(), streamRes.Aggregates, streamRes.Assignments, pp); err != nil {
		return err
	}
	streamDur := time.Since(t0)

	if !reflect.DeepEqual(batchRes.Assignments, streamRes.Assignments) || !batchRes.Load.Equal(streamRes.Load) {
		return fmt.Errorf("streaming pipeline diverged from batch over %d aggregates", len(ags))
	}
	fmt.Fprintf(out, "pipelined %d offers → %d aggregates\n", n, len(ags))
	fmt.Fprintf(out, "batch (serial):       %v\n", batchDur)
	fmt.Fprintf(out, "streaming (pipeline): %v  (%d workers, %.2fx speedup)\n",
		streamDur, workers, float64(batchDur)/float64(streamDur))
	fmt.Fprintln(out, "batch and streaming schedules are identical")

	// Tracing overhead on the full engine pipeline, three ways:
	// "absent" and "disabled" both run with no trace in the context —
	// the production path of an untraced request, one nil check per obs
	// call — so any measured gap between them is the noise floor;
	// "enabled" attaches a trace recording every stage span. All three
	// must produce identical schedules.
	eng := flex.New(flex.WithWorkers(workers), flex.WithSafe(true),
		flex.WithGrouping(flex.GroupParams(gp)))
	defer eng.Close()
	// Best-of-R with a forced GC before each run: a single shot would
	// charge whichever variant runs later for the heap the earlier ones
	// grew, drowning the nanosecond-scale difference under GC pauses.
	// Interleaved best-of-R with a forced GC before every run: running
	// each variant back-to-back would charge later variants for the heap
	// earlier ones grew, and always-first variants for cold caches —
	// either bias dwarfs the nanosecond-scale cost being measured.
	const reps = 3
	tracer := obs.NewTracer(4, 8192)
	one := func(mkTrace func() *obs.Trace) (*flex.PipelineResult, time.Duration, obs.TraceData, error) {
		runtime.GC()
		ctx := context.Background()
		var tr *obs.Trace
		if mkTrace != nil {
			tr = mkTrace()
			ctx = obs.NewContext(ctx, tr)
		}
		t0 := time.Now()
		res, err := eng.Pipeline(ctx, offers, target)
		d := time.Since(t0)
		var td obs.TraceData
		if tr != nil {
			td = tr.Finish()
		}
		return res, d, td, err
	}
	// Warm the pool so round one doesn't pay cold-start.
	if _, err := eng.Pipeline(context.Background(), offers, target); err != nil {
		return err
	}
	variants := []struct {
		name    string
		mkTrace func() *obs.Trace
		res     *flex.PipelineResult
		best    time.Duration
		td      obs.TraceData
	}{
		{name: "absent"},
		{name: "disabled"},
		{name: "enabled", mkTrace: func() *obs.Trace { return tracer.Start("flexbench-sched") }},
	}
	for i := range variants {
		variants[i].best = time.Duration(1<<63 - 1)
	}
	for r := 0; r < reps; r++ {
		for i := range variants {
			v := &variants[i]
			res, d, td, err := one(v.mkTrace)
			if err != nil {
				return err
			}
			if d < v.best {
				v.res, v.best, v.td = res, d, td
			}
		}
	}
	absentRes, absentDur := variants[0].res, variants[0].best
	disabledRes, disabledDur := variants[1].res, variants[1].best
	enabledRes, enabledDur, td := variants[2].res, variants[2].best, variants[2].td
	for name, res := range map[string]*flex.PipelineResult{"disabled": disabledRes, "enabled": enabledRes} {
		if !reflect.DeepEqual(absentRes.AggregateSchedule.Assignments, res.AggregateSchedule.Assignments) ||
			!absentRes.Load.Equal(res.Load) {
			return fmt.Errorf("tracing-%s pipeline diverged from the untraced one", name)
		}
	}
	fmt.Fprintf(out, "engine pipeline, tracing absent:   %v\n", absentDur)
	fmt.Fprintf(out, "engine pipeline, tracing disabled: %v  (%+.1f%% vs absent)\n",
		disabledDur, 100*(float64(disabledDur)/float64(absentDur)-1))
	fmt.Fprintf(out, "engine pipeline, tracing enabled:  %v  (%+.1f%% vs absent, %d spans)\n",
		enabledDur, 100*(float64(enabledDur)/float64(absentDur)-1), len(td.Spans))
	fmt.Fprintln(out, "traced and untraced schedules are identical")
	if trace {
		fmt.Fprintln(out, td.Tree())
	}
	return nil
}

// runChurnCompare measures incremental continuous scheduling in its
// steady state: a clustered-EST fleet (device arrival waves, so the
// grouping's EST-gap cuts bound each change's blast radius) is
// scheduled round after round while ~0.5% of offers are re-submitted
// under their existing IDs between rounds. One persistent
// WithIncremental sharded engine carries its cache across rounds; a
// stateless engine recomputes every round from scratch. Every round's
// results must be identical — the bit-identity contract that makes the
// cache safe to leave on — before the times are compared. The cold
// first round (every group a miss) is reported separately from the
// steady-state rounds the cache exists for.
func runChurnCompare(out io.Writer, n, workers int) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	rng := rand.New(rand.NewSource(99))
	offers, err := workload.Population(rng, n, 2, workload.DefaultMix())
	if err != nil {
		return err
	}
	const clusters, spacing = 64, 3
	for i, f := range offers {
		f.ID = fmt.Sprintf("c-%07d", i)
		est := (i % clusters) * spacing
		f.LatestStart += est - f.EarliestStart
		f.EarliestStart = est
	}
	gp := flex.GroupParams{ESTTolerance: 2, TFTolerance: -1, MaxGroupSize: 64}
	opts := []flex.Option{flex.WithWorkers(workers), flex.WithSafe(true), flex.WithGrouping(gp)}
	incSE := flex.NewSharded(4, append([]flex.Option{flex.WithIncremental(true)}, opts...)...)
	defer incSE.Close()
	full := flex.NewSharded(4, opts...)
	defer full.Close()

	stores := shard.NewStores(shard.Router{Shards: 4})
	stores.Add(offers)
	horizon := 4 * workload.SlotsPerDay
	var expected int64
	for _, f := range offers {
		expected += (f.TotalMin + f.TotalMax) / 2
	}
	target := workload.WindProfile(rng, horizon, expected/int64(horizon))

	// Cold round: the cache is empty, every group misses.
	parts := stores.Snapshot()
	t0 := time.Now()
	got, err := incSE.PipelineRouted(context.Background(), parts, target)
	if err != nil {
		return err
	}
	coldDur := time.Since(t0)
	t0 = time.Now()
	want, err := full.PipelineRouted(context.Background(), parts, target)
	if err != nil {
		return err
	}
	fullColdDur := time.Since(t0)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("cold incremental run diverged from full recompute over %d offers", n)
	}

	const rounds = 20
	delta := n / 1000
	if delta < 1 {
		delta = 1
	}
	var incDur, fullDur time.Duration
	for r := 0; r < rounds; r++ {
		repl, err := workload.Population(rng, delta, 2, workload.DefaultMix())
		if err != nil {
			return err
		}
		for j, f := range repl {
			// Deterministic spread over the fleet, each replacement kept in
			// the replaced offer's EST cluster.
			idx := (r*delta + j*17) % n
			f.ID = fmt.Sprintf("c-%07d", idx)
			est := (idx % clusters) * spacing
			f.LatestStart += est - f.EarliestStart
			f.EarliestStart = est
		}
		stores.Add(repl)
		parts := stores.Snapshot()
		t0 := time.Now()
		got, err := incSE.PipelineRouted(context.Background(), parts, target)
		if err != nil {
			return err
		}
		incDur += time.Since(t0)
		t0 = time.Now()
		want, err := full.PipelineRouted(context.Background(), parts, target)
		if err != nil {
			return err
		}
		fullDur += time.Since(t0)
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("round %d: incremental run diverged from full recompute", r)
		}
	}
	st := incSE.IncrementalStats()
	fmt.Fprintf(out, "fleet of %d offers, %d churn rounds of %d replacements (%.1f%%), 4 shards, %d workers/shard\n",
		n, rounds, delta, 100*float64(delta)/float64(n), workers)
	fmt.Fprintf(out, "cold round:        incremental %v, full %v\n", coldDur, fullColdDur)
	fmt.Fprintf(out, "steady state:      incremental %v/round, full %v/round  (%.2fx speedup)\n",
		incDur/rounds, fullDur/rounds, float64(fullDur)/float64(incDur))
	fmt.Fprintf(out, "cache over %d runs: %d hits, %d misses; last round re-aggregated %d of %d groups, replayed %d placements\n",
		st.Runs, st.Hits, st.Misses, st.LastDirty, st.LastGroups, st.LastReused)
	fmt.Fprintln(out, "every round's incremental result is identical to the full recompute")
	return nil
}

// runReplayCompare measures the durable store: it appends N synthetic
// offers to a fresh WAL under each fsync policy (same population, same
// batching, separate directories), then reboots from the largest log
// twice — once decoding serially, once fanned out across a worker
// pool — verifying that the replayed store matches the live one bit
// for bit.
func runReplayCompare(out io.Writer, n, workers int) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	offers, err := workload.Population(rand.New(rand.NewSource(99)), n, 3, workload.DefaultMix())
	if err != nil {
		return err
	}
	for i, f := range offers {
		f.ID = fmt.Sprintf("r-%07d", i)
	}
	r := shard.Router{Shards: 4}
	const batch = 1000

	appendAll := func(dir string, policy persist.FsyncPolicy) (time.Duration, error) {
		w, err := persist.OpenWAL(persist.Options{
			Dir: dir, Router: r, Fsync: policy,
			SnapshotEvery: -1, // measure the log, not the compactor
		})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for off := 0; off < len(offers); off += batch {
			end := off + batch
			if end > len(offers) {
				end = len(offers)
			}
			if _, _, err := w.Add(context.Background(), offers[off:end]); err != nil {
				w.Close()
				return 0, err
			}
		}
		d := time.Since(t0)
		return d, w.Close()
	}

	var replayDir string
	fmt.Fprintf(out, "appending %d offers (batches of %d, 4 shards)\n", n, batch)
	for _, policy := range []persist.FsyncPolicy{persist.FsyncAlways, persist.FsyncInterval, persist.FsyncOff} {
		dir, err := os.MkdirTemp("", "flexbench-wal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		d, err := appendAll(dir, policy)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "fsync=%-8s %v  (%.0f offers/s)\n", policy, d, float64(n)/d.Seconds())
		replayDir = dir // all three logs are equivalent; reboot the last
	}

	live := persist.NewMemory(r)
	if _, _, err := live.Add(context.Background(), offers); err != nil {
		return err
	}
	replay := func(ex flex.Executor) (*persist.WALStore, time.Duration, error) {
		t0 := time.Now()
		w, err := persist.OpenWAL(persist.Options{Dir: replayDir, Router: r, Executor: ex})
		return w, time.Since(t0), err
	}
	serialStore, serialDur, err := replay(nil)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(serialStore.Snapshot(), live.Snapshot()) {
		return fmt.Errorf("serial replay diverged from the live store over %d offers", n)
	}
	serialStore.Close()

	eng := flex.New(flex.WithWorkers(workers))
	defer eng.Close()
	parStore, parDur, err := replay(eng.Executor())
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(parStore.Snapshot(), live.Snapshot()) {
		return fmt.Errorf("parallel replay diverged from the live store over %d offers", n)
	}
	st := parStore.Stats()
	parStore.Close()

	fmt.Fprintf(out, "replaying %d records (%d segments, %.1f MiB)\n",
		st.Records, st.Segments, float64(st.Bytes)/(1<<20))
	fmt.Fprintf(out, "serial:   %v  (%.0f records/s)\n", serialDur, float64(n)/serialDur.Seconds())
	fmt.Fprintf(out, "parallel: %v  (%d workers, %.0f records/s, %.2fx speedup)\n",
		parDur, workers, float64(n)/parDur.Seconds(), float64(serialDur)/float64(parDur))
	fmt.Fprintln(out, "replayed stores are identical to the live store")
	return nil
}
