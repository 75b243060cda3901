package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	flex "flexmeasures"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/obs"
	"flexmeasures/internal/persist"
	"flexmeasures/internal/server"
	"flexmeasures/internal/shard"
	"flexmeasures/internal/timeseries"
)

// config sizes one workload. Why each workload exists is recorded in
// README.md next to this file.
type config struct {
	name      string
	offers    int
	clustered bool
	// churn > 0 makes a dispatch workload: each cycle re-submits churn
	// offers of one ID cluster, then schedules.
	churn int
	// Ingest requests re-submit batch offers scattered over the fleet;
	// in the ingest stream a measures request follows every
	// measuresEvery of them.
	batch, measuresEvery int
	// setups is how many times a run sets up (setup_s is the median);
	// reopens how many times it reopens the WAL (recovery_s).
	setups, reopens int
	// snapshotEvery is the WAL's snapshot cadence in records (flexd's
	// default is 100000).
	snapshotEvery int
	// minRounds and minSecondary are the fewest rounds of the primary
	// and secondary phase a run makes, even past its time share.
	minRounds, minSecondary int
	// checkEvery samples every n-th schedule or measures response of a
	// phase for the oracle check (the first is always sampled).
	checkEvery int
}

// Request and store parameters shared by every workload.
const (
	estTolerance = 2    // flexd's default ?est
	maxGroup     = 64   // ?max-group: bounds a group, so a cluster packs into many
	preloadChunk = 5000 // offers per preload request
	primaryShare = 0.6  // share of --seconds the primary phase gets
)

var workloads = map[string]config{
	"dispatch-churn": {
		name: "dispatch-churn", offers: 50000, clustered: true, churn: 25, batch: 1000, measuresEvery: 10,
		setups: 3, reopens: 9, snapshotEvery: 100000,
		minRounds: 100, minSecondary: 5, checkEvery: 25,
	},
	"dispatch-dense": {
		name: "dispatch-dense", offers: 50000, churn: 25, batch: 1000, measuresEvery: 10,
		setups: 3, reopens: 9, snapshotEvery: 100000,
		minRounds: 100, minSecondary: 5, checkEvery: 25,
	},
	"ingest-steady": {
		name: "ingest-steady", offers: 50000, batch: 1000, measuresEvery: 10,
		setups: 3, reopens: 9, snapshotEvery: 100000,
		minRounds: 10, minSecondary: 100, checkEvery: 8,
	},
}

// runner holds one run's state: the fleet, the live flexd, the latency
// samples and the outputs awaiting their oracle check.
type runner struct {
	cfg    config
	seed   int64
	budget time.Duration
	dir    string
	ops    *opCounts

	fl        *fleet
	e         *env
	level     int64
	schedPath string
	// logged counts the mutations the current store has logged since it
	// was opened; with a fixed store size it also names the store state
	// for the oracle cache. sinceSnap follows the WAL's count of records
	// since its last snapshot.
	logged, sinceSnap int

	lat     map[string][]float64
	samples []sample
	ingests []ingestCheck
}

// sample is a response body hash awaiting its oracle, with the store
// state the server answered from.
type sample struct {
	kind   string // "schedule" or "measures"
	parts  [][]flex.RoutedOffer
	logged int
	hash   uint64
}

// ingestCheck is an ingest response hash and the body it must be.
type ingestCheck struct {
	hash uint64
	want server.IngestResponse
}

func (r *runner) notef(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// prepare generates the fleet and the request parameters.
func (r *runner) prepare() ([]*flexoffer.FlexOffer, error) {
	fl, offers, err := newFleet(r.seed, r.cfg.offers, r.cfg.clustered)
	if err != nil {
		return nil, err
	}
	r.fl = fl
	// A fixed target, as an aggregator tracking a market commitment
	// has: the initial fleet's expected energy spread flat.
	r.level = server.FlatTargetLevel(offers, fl.horizon, -1)
	r.schedPath = fmt.Sprintf("/v1/schedule?horizon=%d&target=%d&est=%d&max-group=%d",
		fl.horizon, r.level, estTolerance, maxGroup)
	r.lat = map[string][]float64{}
	return offers, nil
}

// preloadBodies encodes the initial fleet as preload requests.
func preloadBodies(offers []*flexoffer.FlexOffer) ([][]byte, []int, error) {
	var bodies [][]byte
	var sizes []int
	for lo := 0; lo < len(offers); lo += preloadChunk {
		hi := min(lo+preloadChunk, len(offers))
		b, err := ndjson(offers[lo:hi])
		if err != nil {
			return nil, nil, err
		}
		bodies = append(bodies, b)
		sizes = append(sizes, hi-lo)
	}
	return bodies, sizes, nil
}

// setup boots a flexd over a fresh WAL in dir, preloads the fleet over
// HTTP and runs the warm-up schedule.
func (r *runner) setup(dir string, tracer *obs.Tracer, fs persist.FS, bodies [][]byte, sizes []int) error {
	e, err := startEnv(dir, r.cfg.snapshotEvery, tracer, fs, r.ops)
	if err != nil {
		return err
	}
	r.e, r.logged, r.sinceSnap = e, 0, 0
	for i, body := range bodies {
		rep, err := e.do(http.MethodPost, "/v1/offers", body)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		r.appended(sizes[i])
		r.ingests = append(r.ingests, ingestCheck{rep.hash, server.IngestResponse{Ingested: sizes[i], Stored: r.logged}})
	}
	if _, err := e.do(http.MethodPost, r.schedPath, nil); err != nil {
		return fmt.Errorf("warm-up schedule: %w", err)
	}
	return nil
}

// setupTimed sets up cfg.setups times, each over a fresh WAL, keeping
// the last, and returns the set-up times in seconds.
func (r *runner) setupTimed(offers []*flexoffer.FlexOffer) ([]float64, error) {
	bodies, sizes, err := preloadBodies(offers)
	if err != nil {
		return nil, err
	}
	var times []float64
	for i := 0; i < r.cfg.setups; i++ {
		if r.e != nil {
			if err := r.e.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(r.e.dir); err != nil {
				return nil, err
			}
			r.ingests = nil
		}
		runtime.GC()
		t0 := time.Now()
		if err := r.setup(filepath.Join(r.dir, fmt.Sprintf("wal-%d", i)), nil, nil, bodies, sizes); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// ingest re-submits offers over HTTP. A refused or failed request is
// counted and skipped.
func (r *runner) ingest(offers []*flexoffer.FlexOffer) error {
	body, err := ndjson(offers)
	if err != nil {
		return err
	}
	rep, err := r.e.do(http.MethodPost, "/v1/offers", body)
	if err != nil {
		r.notef("ingest: %v", err)
		return nil
	}
	r.appended(len(offers))
	r.ingests = append(r.ingests, ingestCheck{rep.hash, server.IngestResponse{
		Ingested: len(offers), Replaced: len(offers), Stored: r.cfg.offers,
	}})
	return nil
}

// query sends a schedule or measures request, files its latency under
// kind and, when keep is set, keeps the body hash for the oracle. A
// refused or failed request is counted and skipped.
func (r *runner) query(kind, method, path string, keep bool) error {
	t0 := time.Now()
	rep, err := r.e.do(method, path, nil)
	d := time.Since(t0)
	if err != nil {
		r.notef("%s: %v", kind, err)
		return nil
	}
	r.lat[kind] = append(r.lat[kind], ms(d))
	if keep {
		r.samples = append(r.samples, sample{kind: kind, parts: r.e.store.Snapshot(), logged: r.logged, hash: rep.hash})
	}
	return nil
}

func (r *runner) schedule(keep bool) error {
	return r.query("schedule", http.MethodPost, r.schedPath, keep)
}

func (r *runner) measures(keep bool) error {
	return r.query("measures", http.MethodGet, "/v1/measures", keep)
}

// phase runs round until its share of the budget is spent and at least
// minRounds rounds ran, or four times the share passed.
func phase(share time.Duration, minRounds int, round func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if (i >= minRounds && el >= share) || el >= 4*share {
			return nil
		}
		if err := round(i); err != nil {
			return err
		}
	}
}

// ops carries out a workload's requests: over HTTP against flexd (the
// runner) or through the layers' public functions (the replay). keep
// says whether a response is checked against the oracle.
type ops interface {
	ingest(batch []*flexoffer.FlexOffer) error
	schedule(keep bool) error
	measures(keep bool) error
}

// A round is one repetition of a phase's traffic.
type round func(fl *fleet, c config, o ops, i int) error

// dispatchRound re-submits churn offers of one ID cluster, then
// schedules.
func dispatchRound(fl *fleet, c config, o ops, i int) error {
	batch, err := fl.clusterChurn(c.churn)
	if err != nil {
		return err
	}
	if err := o.ingest(batch); err != nil {
		return err
	}
	return o.schedule(i%c.checkEvery == 0)
}

// ingestRound streams measuresEvery batches of re-submissions scattered
// over the fleet, then asks for the measures.
func ingestRound(fl *fleet, c config, o ops, i int) error {
	for j := 0; j < c.measuresEvery; j++ {
		batch, err := fl.scatterChurn(c.batch)
		if err != nil {
			return err
		}
		if err := o.ingest(batch); err != nil {
			return err
		}
	}
	return o.measures(i%c.checkEvery == 0)
}

// rescheduleRound re-submits one scattered batch, then schedules.
func rescheduleRound(fl *fleet, c config, o ops, i int) error {
	batch, err := fl.scatterChurn(c.batch)
	if err != nil {
		return err
	}
	if err := o.ingest(batch); err != nil {
		return err
	}
	return o.schedule(i%c.checkEvery == 0)
}

// phases returns the workload's primary round and the secondary round
// that adds the request kinds the primary leaves out, so every workload
// reports every end-to-end metric. A dispatch workload's secondary
// phase is the ingest stream; the ingest workload's schedules after
// scattered re-submissions.
func (c config) phases() (primary, secondary round) {
	if c.churn > 0 {
		return dispatchRound, ingestRound
	}
	return ingestRound, rescheduleRound
}

// runPhase runs rd over HTTP for share, at least minRounds times.
func (r *runner) runPhase(rd round, share time.Duration, minRounds int) error {
	return phase(share, minRounds, func(i int) error { return rd(r.fl, r.cfg, r, i) })
}

// endToEnd is the untraced run behind the end-to-end metrics.
func (r *runner) endToEnd() (metrics, error) {
	offers, err := r.prepare()
	if err != nil {
		return nil, err
	}
	setups, err := r.setupTimed(offers)
	offers = nil
	if r.e != nil {
		defer r.e.close()
	}
	if err != nil {
		return nil, err
	}
	m := metrics{}
	m.set("setup_s", "s", median(setups))
	runtime.GC()

	primary, secondary := r.cfg.phases()
	share := time.Duration(primaryShare * float64(r.budget))
	if err := r.runPhase(primary, share, r.cfg.minRounds); err != nil {
		return nil, err
	}
	if err := r.check(); err != nil {
		return m, err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.set("heap_live_mb", "MB", float64(mem.HeapAlloc)/1e6)

	if err := r.runPhase(secondary, r.budget-share, r.cfg.minSecondary); err != nil {
		return nil, err
	}
	if err := r.check(); err != nil {
		return m, err
	}
	recovery, _, err := r.recover(nil)
	if err != nil {
		return m, err
	}
	m.set("schedule_p50_ms", "ms", median(r.lat["schedule"]))
	m.set("measures_p50_ms", "ms", median(r.lat["measures"]))
	m.set("recovery_s", "s", median(recovery))
	for _, kind := range []string{"schedule", "measures"} {
		xs := r.lat[kind]
		r.notef("%s: %d samples, p50 %.2f ms, p90 %.2f ms", kind, len(xs), quantile(xs, 0.5), quantile(xs, 0.9))
	}
	r.notef("requests: %d attempted, %d refused, %d failed", r.ops.attempted, r.ops.refused, r.ops.failed)
	return m, nil
}

// recover pads the log to a snapshot boundary, closes the flexd and
// reopens its WAL cfg.reopens times, checking every reopened store
// against the live one. It returns the reopen times in seconds and the
// records each replayed. The padding makes every run replay the same
// thing — one snapshot of the fixed-size store and an empty tail —
// however many requests the timed phases fit in.
func (r *runner) recover(sp *spans) ([]float64, int, error) {
	ctx := context.Background()
	for need := (r.cfg.snapshotEvery - r.sinceSnap) % r.cfg.snapshotEvery; need > 0; {
		k := min(need, preloadChunk)
		batch, err := r.fl.scatterChurn(k)
		if err != nil {
			return nil, 0, err
		}
		if _, _, err := r.e.store.Add(ctx, batch); err != nil {
			return nil, 0, err
		}
		r.appended(k)
		need -= k
	}
	live := r.e.store.Snapshot()
	if err := r.e.close(); err != nil {
		return nil, 0, err
	}
	// flexd boots its engine before the WAL and decodes the replay on
	// the engine's pool.
	se := flex.NewSharded(shards, engineOptions()...)
	defer se.Close()
	var times []float64
	records := 0
	for i := 0; i < r.cfg.reopens; i++ {
		runtime.GC()
		id := sp.start("persist.replay", -1)
		t0 := time.Now()
		w, err := persist.OpenWAL(walOptions(r.e.dir, r.cfg.snapshotEvery, nil, se.Executor(), nil))
		d := time.Since(t0)
		sp.end(id)
		if err != nil {
			return nil, 0, err
		}
		st := w.Stats()
		same := reflect.DeepEqual(w.Snapshot(), live)
		if err := w.Close(); err != nil {
			return nil, 0, err
		}
		if !same {
			return nil, 0, fmt.Errorf("%w: reopened WAL differs from the live store", errMismatch)
		}
		times = append(times, d.Seconds())
		records = st.SnapshotRecords + st.Records
	}
	if records != r.cfg.offers {
		r.notef("reopen replayed %d records, not one snapshot of %d", records, r.cfg.offers)
	}
	return times, records, nil
}

// appended counts k records the store logged. The WAL snapshots once
// an append brings its count since the last snapshot to snapshotEvery.
func (r *runner) appended(k int) {
	r.logged += k
	if r.sinceSnap += k; r.sinceSnap >= r.cfg.snapshotEvery {
		r.sinceSnap = 0
	}
}

// check compares every kept response with its oracle — a stateless,
// non-incremental engine rendering through the server's own encoders —
// and the store size with the fleet size. It runs outside the timed
// phases and releases the kept snapshots.
func (r *runner) check() error {
	defer func() { r.samples, r.ingests = nil, nil }()
	for _, c := range r.ingests {
		hw := newHashWriter()
		if err := server.EncodeResponse(hw, &c.want); err != nil {
			return err
		}
		if hw.h.Sum64() != c.hash {
			return fmt.Errorf("%w: ingest response differs from %+v", errMismatch, c.want)
		}
	}
	if n := r.e.store.Len(); n != r.cfg.offers {
		return fmt.Errorf("%w: store holds %d offers, want %d", errMismatch, n, r.cfg.offers)
	}
	if len(r.samples) == 0 {
		return nil
	}
	o := newOracle()
	defer o.close()
	type state struct {
		kind   string
		logged int
	}
	want := map[state]uint64{}
	for _, s := range r.samples {
		key := state{s.kind, s.logged}
		h, ok := want[key]
		if !ok {
			var err error
			if s.kind == "schedule" {
				h, _, err = o.schedule(s.parts, r.fl.horizon, r.level)
			} else {
				h, err = o.measures(s.parts)
			}
			if err != nil {
				return err
			}
			want[key] = h
		}
		if h != s.hash {
			return fmt.Errorf("%w: %s response differs from the oracle", errMismatch, s.kind)
		}
	}
	return nil
}

// oracle recomputes responses without the serving engine's state: a
// stateless sharded engine for schedules, a single engine for measures.
type oracle struct {
	se  *flex.ShardedEngine
	eng *flex.Engine
}

func newOracle() *oracle {
	return &oracle{
		se:  flex.NewSharded(shards, flex.WithWorkers(0), flex.WithSafe(true)),
		eng: flex.New(flex.WithWorkers(0)),
	}
}

func (o *oracle) close() {
	o.se.Close()
	o.eng.Close()
}

// schedule renders the schedule response for parts and returns its
// hash and length.
func (o *oracle) schedule(parts [][]flex.RoutedOffer, horizon int, level int64) (uint64, int64, error) {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	target := timeseries.Constant(0, horizon, level)
	res, err := o.se.PipelineRouted(context.Background(), parts, target, flex.WithGrouping(groupParams()))
	if err != nil {
		return 0, 0, err
	}
	hw := newHashWriter()
	if err := server.StreamScheduleResponse(hw, server.BuildScheduleResponse(total, res, target, horizon, level)); err != nil {
		return 0, 0, err
	}
	return hw.h.Sum64(), hw.n, nil
}

// measures renders the measures response for parts and returns its hash.
func (o *oracle) measures(parts [][]flex.RoutedOffer) (uint64, error) {
	tab, err := o.eng.Measures(context.Background(), shard.Flatten(parts))
	if err != nil {
		return 0, err
	}
	hw := newHashWriter()
	if err := server.EncodeResponse(hw, server.BuildMeasuresResponse(tab)); err != nil {
		return 0, err
	}
	return hw.h.Sum64(), nil
}

// groupParams are the grouping tolerances the schedule requests ask for.
func groupParams() flex.GroupParams {
	return flex.GroupParams{ESTTolerance: estTolerance, TFTolerance: -1, MaxGroupSize: maxGroup}
}
