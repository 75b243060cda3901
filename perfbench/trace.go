package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	flex "flexmeasures"
	"flexmeasures/internal/aggregate"
	"flexmeasures/internal/core"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/grouping"
	"flexmeasures/internal/inc"
	"flexmeasures/internal/ingest"
	"flexmeasures/internal/obs"
	"flexmeasures/internal/persist"
	"flexmeasures/internal/sched"
	"flexmeasures/internal/server"
	"flexmeasures/internal/shard"
	"flexmeasures/internal/timeseries"
)

// span is one timed call into a layer. Spans of one replay round share
// the round's root span as their ancestor.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans keeps a run's spans in memory. While off, and on a nil
// recorder, start returns -1 and nothing is recorded.
type spans struct {
	t0   time.Time
	on   bool
	mu   sync.Mutex
	list []span
}

func (s *spans) start(name string, parent int32) int32 {
	if s == nil || !s.on {
		return -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := int32(len(s.list))
	s.list = append(s.list, span{Name: name, ID: id, Parent: parent, Start: time.Since(s.t0).Nanoseconds()})
	return id
}

func (s *spans) end(id int32) {
	if id < 0 {
		return
	}
	s.mu.Lock()
	s.list[id].End = time.Since(s.t0).Nanoseconds()
	s.mu.Unlock()
}

// total returns the summed duration in milliseconds of the spans named
// name, and how many there were.
func (s *spans) total(name string) (float64, int) {
	var sum int64
	n := 0
	for _, sp := range s.list {
		if sp.Name == name {
			sum += sp.End - sp.Start
			n++
		}
	}
	return float64(sum) / 1e6, n
}

// mean returns the mean duration in milliseconds of the spans named name.
func (s *spans) mean(name string) float64 {
	sum, n := s.total(name)
	return ratio(sum, float64(n))
}

// write dumps the spans as JSON.
func (s *spans) write(path string) error {
	data, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// countingFS wraps the real filesystem and counts what the WAL writes
// to its log segments and how often it syncs them.
type countingFS struct {
	persist.FS
	logBytes, logSyncs atomic.Int64
}

func (c *countingFS) Create(name string) (persist.File, error) {
	f, err := c.FS.Create(name)
	if err != nil || !strings.HasSuffix(name, ".log") {
		return f, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	persist.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.logBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.logSyncs.Add(1)
	return f.File.Sync()
}

// measureSet is the table GET /v1/measures computes, in its column
// order, under the default L1 norm.
func measureSet() []core.Measure {
	return []core.Measure{
		core.TimeMeasure{},
		core.EnergyMeasure{},
		core.ProductMeasure{},
		core.VectorMeasure{NormKind: timeseries.L1},
		core.SeriesMeasure{NormKind: timeseries.L1, Aligned: true},
		core.AssignmentsMeasure{},
		core.AbsoluteAreaMeasure{},
		core.RelativeAreaMeasure{},
	}
}

// replay drives the workload's operations through the layers' public
// functions, the way flexd's handlers chain them, with a span around
// every call. It owns one engine per shard as the shards' worker pools
// and its own incremental cache; the store is the traced flexd's.
type replay struct {
	r      *runner
	sp     *spans
	fs     *countingFS
	engs   []*flex.Engine
	state  *inc.State
	target timeseries.Series

	appends, appended       int
	appendBytes, appendSync int64
	segments, groups        int
	scheduleBytes           int64
	schedules               int
	kept                    []sample
	// root is the span of the round in progress.
	root int32
}

func newReplay(r *runner, sp *spans, fs *countingFS) *replay {
	p := &replay{
		root:   -1,
		r:      r,
		sp:     sp,
		fs:     fs,
		state:  inc.NewState(),
		target: timeseries.Constant(0, r.fl.horizon, r.level),
	}
	for k := 0; k < shards; k++ {
		p.engs = append(p.engs, flex.New(flex.WithWorkers(0)))
	}
	return p
}

func (p *replay) close() {
	for _, e := range p.engs {
		e.Close()
	}
}

// fanOut splits [0, n) into one contiguous block per shard and runs fn
// on every block concurrently, each on its shard's pool — the shape of
// the sharded engine's scatter stages.
func (p *replay) fanOut(n int, fn func(k, lo, hi int) error) error {
	errs := make([]error, len(p.engs))
	var wg sync.WaitGroup
	for k := range p.engs {
		lo, hi := k*n/len(p.engs), (k+1)*n/len(p.engs)
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			errs[k] = fn(k, lo, hi)
		}(k, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ingest is POST /v1/offers: decode the NDJSON body, then log and apply
// it through the store.
func (p *replay) ingest(batch []*flexoffer.FlexOffer) error {
	ctx, root := context.Background(), p.root
	body, err := ndjson(batch)
	if err != nil {
		return err
	}
	id := p.sp.start("ingest.decode", root)
	offers, err := ingest.DecodeNDJSON(ctx, bytes.NewReader(body), ingest.Params{Pool: p.engs[0].Executor()})
	p.sp.end(id)
	if err != nil {
		return err
	}
	b0, s0 := p.fs.logBytes.Load(), p.fs.logSyncs.Load()
	id = p.sp.start("persist.append", root)
	_, _, err = p.r.e.store.Add(ctx, offers)
	p.sp.end(id)
	if err != nil {
		return err
	}
	p.appends++
	p.appended += len(offers)
	p.appendBytes += p.fs.logBytes.Load() - b0
	p.appendSync += p.fs.logSyncs.Load() - s0
	p.r.appended(len(offers))
	return nil
}

// schedule is POST /v1/schedule: snapshot, scatter-gather grouping, the
// incremental pipeline with the aggregate layer plugged in, and the
// streamed response. It also places the aggregates with the stateless
// scheduler — the placement a full recompute pays — and checks that it
// agrees with the incremental walk.
func (p *replay) schedule(bool) error {
	ctx, root := context.Background(), p.root
	id := p.sp.start("shard.snapshot", root)
	parts := p.r.e.store.Snapshot()
	p.sp.end(id)
	total := 0
	for _, part := range parts {
		total += len(part)
	}

	id = p.sp.start("grouping.sort", root)
	runs := make([]shard.Run, len(parts))
	_ = p.fanOut(len(parts), func(k, lo, hi int) error {
		for s := lo; s < hi; s++ {
			runs[s] = sortPart(parts[s], p.engs[s%len(p.engs)].Executor())
		}
		return nil
	})
	p.sp.end(id)
	id = p.sp.start("shard.merge", root)
	merged := shard.MergeRuns(runs)
	p.sp.end(id)
	id = p.sp.start("grouping.pack", root)
	ends := grouping.Cuts(merged.ESTs, estTolerance)
	per := make([][][]*flexoffer.FlexOffer, len(ends))
	p.engs[0].Executor().ForEach(len(ends), 0, 0, func(s int) {
		lo := 0
		if s > 0 {
			lo = ends[s-1]
		}
		per[s] = grouping.Pack(merged.Offers[lo:ends[s]], merged.TFs[lo:ends[s]], groupParams())
	})
	var groups [][]*flexoffer.FlexOffer
	for _, g := range per {
		groups = append(groups, g...)
	}
	p.sp.end(id)
	p.segments, p.groups = len(ends), len(groups)

	runID := p.sp.start("inc.run", root)
	res, err := p.state.Run(ctx, groups, p.target, inc.Config{Safe: true},
		func(ctx context.Context, gs [][]*flexoffer.FlexOffer) ([]*aggregate.Aggregated, error) {
			id := p.sp.start("aggregate.aggregate", runID)
			defer p.sp.end(id)
			out := make([]*aggregate.Aggregated, len(gs))
			err := p.fanOut(len(gs), func(k, lo, hi int) error {
				ags, err := aggregate.AggregateGroupsSafeParallel(ctx, gs[lo:hi], aggregate.ParallelParams{Pool: p.engs[k].Executor()})
				copy(out[lo:hi], ags)
				return err
			})
			return out, err
		},
		func(ctx context.Context, ags []*aggregate.Aggregated, asgs []flexoffer.Assignment) ([][]flexoffer.Assignment, error) {
			id := p.sp.start("aggregate.disaggregate", runID)
			defer p.sp.end(id)
			out := make([][]flexoffer.Assignment, len(ags))
			err := p.fanOut(len(ags), func(k, lo, hi int) error {
				parts, err := aggregate.DisaggregateAllParallel(ctx, ags[lo:hi], asgs[lo:hi], aggregate.ParallelParams{Pool: p.engs[k].Executor()})
				copy(out[lo:hi], parts)
				return err
			})
			return out, err
		})
	p.sp.end(runID)
	if err != nil {
		return err
	}

	aggOffers := make([]*flexoffer.FlexOffer, len(res.Aggregates))
	for i, ag := range res.Aggregates {
		aggOffers[i] = ag.Offer
	}
	id = p.sp.start("sched.place", root)
	full, err := sched.Schedule(aggOffers, p.target, sched.Options{})
	p.sp.end(id)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(full.Assignments, res.Assignments) {
		return fmt.Errorf("%w: incremental placement differs from the stateless scheduler", errMismatch)
	}

	pr := &flex.PipelineResult{
		Aggregates:        res.Aggregates,
		AggregateSchedule: &sched.Result{Assignments: res.Assignments, Load: res.Load},
		Disaggregated:     res.Disaggregated,
		Load:              res.Load,
	}
	hw := newHashWriter()
	id = p.sp.start("server.schedule_encode", root)
	err = server.StreamScheduleResponse(hw, server.BuildScheduleResponse(total, pr, p.target, p.r.fl.horizon, p.r.level))
	p.sp.end(id)
	if err != nil {
		return err
	}
	p.scheduleBytes += hw.n
	p.schedules++
	p.keep("schedule", parts, hw.h.Sum64())
	return nil
}

// keep holds the first response of each kind for the oracle check,
// which runs after the timed rounds.
func (p *replay) keep(kind string, parts [][]flex.RoutedOffer, hash uint64) {
	for _, s := range p.kept {
		if s.kind == kind {
			return
		}
	}
	p.kept = append(p.kept, sample{kind: kind, parts: parts, logged: p.r.logged, hash: hash})
}

// sortPart stable-sorts one shard's entries by the grouping key, as the
// sharded engine's scatter sort does.
func sortPart(part []flex.RoutedOffer, ex flex.Executor) shard.Run {
	offers := make([]*flexoffer.FlexOffer, len(part))
	for i, e := range part {
		offers[i] = e.Offer
	}
	perm, ests, tfs := grouping.SortRun(offers, ex, 0)
	run := shard.Run{
		Offers: make([]*flexoffer.FlexOffer, len(part)),
		Seqs:   make([]uint64, len(part)),
		ESTs:   make([]int, len(part)),
		TFs:    make([]int, len(part)),
	}
	for i, pi := range perm {
		run.Offers[i] = offers[pi]
		run.Seqs[i] = part[pi].Seq
		run.ESTs[i] = ests[pi]
		run.TFs[i] = tfs[pi]
	}
	return run
}

// measures is GET /v1/measures: the eight measures over every stored
// offer, one measure at a time so each gets its own span, then the set
// values and the response.
func (p *replay) measures(bool) error {
	root := p.root
	id := p.sp.start("shard.snapshot", root)
	parts := p.r.e.store.Snapshot()
	p.sp.end(id)
	flat := shard.Flatten(parts)
	ms := measureSet()
	tab := &flex.MeasureTable{
		Names:  make([]string, len(ms)),
		Values: make([][]float64, len(flat)),
		Set:    make([]float64, len(ms)),
	}
	for i := range tab.Values {
		tab.Values[i] = make([]float64, len(ms))
	}
	for j, m := range ms {
		tab.Names[j] = m.Name()
		id := p.sp.start("core."+m.Name(), root)
		_ = p.fanOut(len(flat), func(k, lo, hi int) error {
			p.engs[k].Executor().ForEach(hi-lo, 0, 0, func(i int) {
				v, err := m.Value(flat[lo+i])
				if err != nil {
					v = math.NaN()
				}
				tab.Values[lo+i][j] = v
			})
			return nil
		})
		p.sp.end(id)
		id = p.sp.start("core."+m.Name()+"_set", root)
		v, err := m.SetValue(flat)
		p.sp.end(id)
		if err != nil {
			v = math.NaN()
		}
		tab.Set[j] = v
	}
	hw := newHashWriter()
	id = p.sp.start("server.measures_encode", root)
	err := server.EncodeResponse(hw, server.BuildMeasuresResponse(tab))
	p.sp.end(id)
	if err != nil {
		return err
	}
	p.keep("measures", parts, hw.h.Sum64())
	return nil
}

// rounds replays the workload's two phases, tracing every other round,
// and returns the mean wall time of traced and untraced rounds.
func (p *replay) rounds(primary, secondary time.Duration) (traced, untraced float64, err error) {
	var on, off []float64
	run := func(rd round, share time.Duration) error {
		return phase(share, 2, func(i int) error {
			p.sp.on = i%2 == 0
			t0 := time.Now()
			p.root = p.sp.start("round", -1)
			err := rd(p.r.fl, p.r.cfg, p, i)
			p.sp.end(p.root)
			if p.sp.on {
				on = append(on, ms(time.Since(t0)))
			} else {
				off = append(off, ms(time.Since(t0)))
			}
			p.sp.on, p.root = false, -1
			return err
		})
	}
	first, second := p.r.cfg.phases()
	if err := run(first, primary); err != nil {
		return 0, 0, err
	}
	if err := run(second, secondary); err != nil {
		return 0, 0, err
	}
	return mean(on), mean(off), nil
}

// stageSums returns the traced server's flexd_stage_seconds sums by
// stage, in seconds. A stage recorded both without a shard label and
// per shard counts once, under its unlabeled series.
func stageSums(m *obs.Metrics) map[string]float64 {
	unlabeled := map[string]float64{}
	perShard := map[string]float64{}
	for _, s := range m.Series() {
		if s.Shard < 0 {
			unlabeled[s.Stage] += s.Sum
		} else {
			perShard[s.Stage] += s.Sum
		}
	}
	out := map[string]float64{}
	for _, st := range obs.Stages {
		if v, ok := unlabeled[st]; ok {
			out[st] = v
		} else {
			out[st] = perShard[st]
		}
	}
	return out
}

// traced is the run behind the per-layer metrics. It sets up once with
// flexd's own tracer attached, runs both phases of the workload over
// HTTP to read the tracer's stage histograms, the runtime's GC counters
// and the engine's incremental-cache counters, then replays the phases
// through the layers with spans, and finally reopens the WAL.
func (r *runner) traced(spanPath string) (metrics, error) {
	offers, err := r.prepare()
	if err != nil {
		return nil, err
	}
	bodies, sizes, err := preloadBodies(offers)
	offers = nil
	if err != nil {
		return nil, err
	}
	tracer := obs.NewTracer(0, 0)
	cfs := &countingFS{FS: persist.OS()}
	err = r.setup(filepath.Join(r.dir, "wal-0"), tracer, cfs, bodies, sizes)
	bodies = nil
	if r.e != nil {
		defer r.e.close()
	}
	if err != nil {
		return nil, err
	}
	m := metrics{}

	// flexd's own view: stage histograms, GC and cache counters over
	// both phases, served over HTTP with the tracer attached.
	runtime.GC()
	before := stageSums(tracer.Metrics())
	inc0 := r.e.se.IncrementalStats()
	req0 := r.ops.attempted
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	httpShare := time.Duration(0.4 * float64(r.budget))
	primary, secondary := r.cfg.phases()
	if err := r.runPhase(primary, time.Duration(primaryShare*float64(httpShare)), 2); err != nil {
		return nil, err
	}
	if err := r.runPhase(secondary, httpShare-time.Duration(primaryShare*float64(httpShare)), 2); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&mem1)
	reqs := float64(r.ops.attempted - req0)
	after := stageSums(tracer.Metrics())
	for _, st := range obs.Stages {
		m.set("obs."+st+"_ms", "ms", ratio(1000*(after[st]-before[st]), reqs))
	}
	m.set("runtime.gc_cycles", "count/req", ratio(float64(mem1.NumGC-mem0.NumGC), reqs))
	m.set("runtime.gc_pause_ms", "ms/req", ratio(float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6, reqs))
	m.set("runtime.alloc_mb_per_op", "MB", ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc)/1e6, reqs))
	st := r.e.se.IncrementalStats()
	hits, misses := float64(st.Hits-inc0.Hits), float64(st.Misses-inc0.Misses)
	runs := float64(st.Runs - inc0.Runs)
	placed := float64(st.Reused - inc0.Reused + st.Replaced - inc0.Replaced + st.Placed - inc0.Placed)
	m.set("inc.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	m.set("inc.placements_reused_ratio", "ratio", ratio(float64(st.Reused-inc0.Reused), placed))
	m.set("inc.full_run_share", "ratio", ratio(float64(st.FullRuns-inc0.FullRuns), runs))
	m.set("inc.dirty_groups", "count", ratio(misses, runs))
	m.set("server.requests", "count", reqs)
	m.set("server.refused", "count", float64(r.ops.refused))
	m.set("server.failed", "count", float64(r.ops.failed))
	if err := r.check(); err != nil {
		return m, err
	}

	// The layers' view: the same phases replayed through the layers'
	// public functions, every other round traced.
	if err := r.e.stopServing(); err != nil {
		return nil, err
	}
	sp := &spans{t0: time.Now()}
	p := newReplay(r, sp, cfs)
	defer p.close()
	// One untraced warm-up schedule fills the replay's own cache.
	if err := p.schedule(false); err != nil {
		return m, err
	}
	p.schedules, p.scheduleBytes = 0, 0
	rest := r.budget - httpShare
	on, off, err := p.rounds(time.Duration(primaryShare*float64(rest)), rest-time.Duration(primaryShare*float64(rest)))
	if err != nil {
		return m, err
	}
	r.samples = p.kept
	if err := r.check(); err != nil {
		return m, err
	}
	sp.on = true
	replayTimes, records, err := r.recover(sp)
	if err != nil {
		return m, err
	}

	for _, name := range spanMetrics() {
		m.set(name+"_ms", "ms", sp.mean(name))
	}
	m.set("grouping.group_ms", "ms", sp.mean("grouping.sort")+sp.mean("grouping.pack"))
	// The incremental walk's self time: inc.run minus its aggregate
	// and disaggregate children.
	run, nRun := sp.total("inc.run")
	agg, _ := sp.total("aggregate.aggregate")
	dis, _ := sp.total("aggregate.disaggregate")
	m.set("inc.walk_ms", "ms", ratio(run-agg-dis, float64(nRun)))
	m.set("grouping.segments", "count", float64(p.segments))
	m.set("aggregate.groups", "count", float64(p.groups))
	m.set("persist.fsyncs", "count/op", ratio(float64(p.appendSync), float64(p.appends)))
	m.set("persist.bytes_per_offer", "B", ratio(float64(p.appendBytes), float64(p.appended)))
	m.set("persist.replay_ms", "ms", 1000*median(replayTimes))
	m.set("persist.replay_records", "count", float64(records))
	m.set("server.schedule_bytes", "B", ratio(float64(p.scheduleBytes), float64(p.schedules)))
	m.set("trace.overhead_ms", "ms", on-off)
	_, rounds := sp.total("round")
	m.set("trace.spans_per_round", "count", ratio(float64(len(sp.list)-r.cfg.reopens), float64(rounds)))
	r.notef("replay: %d traced rounds, %d spans written to %s", rounds, len(sp.list), spanPath)
	return m, sp.write(spanPath)
}

// spanMetrics names the spans reported as mean milliseconds per call.
func spanMetrics() []string {
	names := []string{
		"ingest.decode", "persist.append", "shard.snapshot", "shard.merge",
		"grouping.sort", "grouping.pack", "aggregate.aggregate", "aggregate.disaggregate",
		"sched.place", "server.schedule_encode", "server.measures_encode",
	}
	for _, m := range measureSet() {
		names = append(names, "core."+m.Name(), "core."+m.Name()+"_set")
	}
	return names
}
