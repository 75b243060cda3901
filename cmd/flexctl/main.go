// Command flexctl inspects and processes flex-offer JSON documents (as
// produced by flexgen): validation, flexibility measurement, assignment
// enumeration, aggregation, scheduling and ASCII rendering.
//
// Usage:
//
//	flexctl validate offers.json
//	flexctl measure  offers.json             # all 8 measures, per offer + set
//	flexctl measure  -m product offers.json  # one measure
//	flexctl render   offers.json             # profile + area diagrams
//	flexctl enumerate -limit 50 offers.json  # list valid assignments
//	flexctl aggregate -est 4 offers.json     # group + aggregate, report losses
//	flexctl aggregate -workers 8 offers.json # same, aggregating groups in parallel
//	flexctl schedule -horizon 72 offers.json # greedy schedule vs. flat target
//	flexctl schedule -pipeline -workers 8 offers.json
//	                                         # group→aggregate→schedule→disaggregate
//	flexctl schedule -pipeline -json offers.json
//	                                         # emit the flexd wire format (bit-identical to POST /v1/schedule)
//	flexctl push -url http://host:8080 offers.ndjson
//	                                         # upload to flexd, retrying 429/503 with backoff
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	flex "flexmeasures"
	"flexmeasures/internal/buildinfo"
	"flexmeasures/internal/core"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/grouping"
	"flexmeasures/internal/render"
	"flexmeasures/internal/server"
	"flexmeasures/internal/timeseries"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flexctl:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: flexctl <validate|measure|render|enumerate|aggregate|schedule|push> [flags] <file.json>")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "version", "-version", "--version":
		fmt.Fprintln(out, buildinfo.String("flexctl"))
		return nil
	case "push":
		return cmdPush(rest, out)
	case "validate":
		return cmdValidate(rest, out)
	case "measure":
		return cmdMeasure(rest, out)
	case "render":
		return cmdRender(rest, out)
	case "enumerate":
		return cmdEnumerate(rest, out)
	case "aggregate":
		return cmdAggregate(rest, out)
	case "schedule":
		return cmdSchedule(rest, out)
	case "refine":
		return cmdRefine(rest, out)
	case "tighten":
		return cmdTighten(rest, out)
	case "table1":
		return cmdTable1(rest, out)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// cmdTable1 prints the paper's Table 1 (optionally with the extension
// measures appended) and verifies every behavioural cell by probing.
func cmdTable1(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	ext := fs.Bool("extensions", false, "append this library's extension measures")
	if err := fs.Parse(args); err != nil {
		return err
	}
	measures := core.AllMeasures()
	if *ext {
		measures = append(measures, core.ExtensionMeasures()...)
	}
	cols, rowNames, cells := core.Table1(measures)
	header := append([]string{"Characteristics"}, cols...)
	rows := make([][]string, len(rowNames))
	for i, name := range rowNames {
		row := []string{name}
		for j := range cols {
			if cells[i][j] {
				row = append(row, "Yes")
			} else {
				row = append(row, "No")
			}
		}
		rows[i] = row
	}
	fmt.Fprint(out, render.Table(header, rows))
	for _, m := range measures {
		if err := core.VerifyCharacteristics(m); err != nil {
			return fmt.Errorf("probe disagrees with declaration: %w", err)
		}
	}
	fmt.Fprintln(out, "all behavioural cells verified by probing")
	return nil
}

// loadOffers reads a flex-offer document, auto-detecting the JSON and
// binary formats by their leading bytes.
func loadOffers(fs *flag.FlagSet) ([]*flexoffer.FlexOffer, error) {
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("expected exactly one input file, got %d", fs.NArg())
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, err := br.Peek(4)
	if err == nil && (string(head) == "FXO1" || string(head) == "FXO2") {
		return flexoffer.DecodeBinary(br)
	}
	return flexoffer.Decode(br)
}

func cmdValidate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	offers, err := loadOffers(fs)
	if err != nil {
		return err
	}
	kinds := map[flexoffer.Kind]int{}
	for _, f := range offers {
		kinds[f.Kind()]++
	}
	fmt.Fprintf(out, "%d valid flex-offers (%d positive, %d negative, %d mixed)\n",
		len(offers), kinds[flexoffer.Positive], kinds[flexoffer.Negative], kinds[flexoffer.Mixed])
	return nil
}

func cmdMeasure(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("measure", flag.ContinueOnError)
	name := fs.String("m", "", "measure only this (e.g. product, vector_l2); default all")
	if err := fs.Parse(args); err != nil {
		return err
	}
	offers, err := loadOffers(fs)
	if err != nil {
		return err
	}
	var measures []core.Measure
	if *name != "" {
		m, err := core.LookupMeasure(*name)
		if err != nil {
			return err
		}
		measures = []core.Measure{m}
	} else {
		measures = core.AllMeasures()
	}
	header := []string{"offer"}
	for _, m := range measures {
		header = append(header, m.Name())
	}
	var rows [][]string
	for i, f := range offers {
		id := f.ID
		if id == "" {
			id = fmt.Sprintf("#%d", i)
		}
		row := []string{id}
		for _, m := range measures {
			v, err := m.Value(f)
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			row = append(row, fmt.Sprintf("%.3g", v))
		}
		rows = append(rows, row)
	}
	setRow := []string{"SET"}
	for _, m := range measures {
		v, err := m.SetValue(offers)
		if err != nil {
			setRow = append(setRow, "n/a")
			continue
		}
		setRow = append(setRow, fmt.Sprintf("%.3g", v))
	}
	rows = append(rows, setRow)
	fmt.Fprint(out, render.Table(header, rows))
	return nil
}

func cmdRender(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("render", flag.ContinueOnError)
	area := fs.Bool("area", false, "render the joint flexibility area instead of the profile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	offers, err := loadOffers(fs)
	if err != nil {
		return err
	}
	for i, f := range offers {
		fmt.Fprintf(out, "-- offer %d %s --\n", i, f.ID)
		if *area {
			fmt.Fprint(out, render.Area(f))
		} else {
			fmt.Fprint(out, render.FlexOffer(f))
		}
	}
	return nil
}

func cmdEnumerate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("enumerate", flag.ContinueOnError)
	limit := fs.Int("limit", 100, "maximum assignments to list per offer")
	if err := fs.Parse(args); err != nil {
		return err
	}
	offers, err := loadOffers(fs)
	if err != nil {
		return err
	}
	for i, f := range offers {
		fmt.Fprintf(out, "-- offer %d %s: %s assignments by Definition 8 --\n",
			i, f.ID, f.AssignmentCount())
		n := 0
		err := f.EnumerateAssignments(*limit, func(a flexoffer.Assignment) bool {
			fmt.Fprintf(out, "  %s\n", a.Series())
			n++
			return true
		})
		if err != nil {
			fmt.Fprintf(out, "  … truncated at %d\n", n)
		}
	}
	return nil
}

func cmdAggregate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aggregate", flag.ContinueOnError)
	est := fs.Int("est", 2, "earliest-start-time tolerance")
	tft := fs.Int("tft", -1, "time-flexibility tolerance (-1: unbounded)")
	size := fs.Int("max-group", 0, "maximum group size (0: unbounded)")
	balance := fs.Bool("balance", false, "use balance-aware grouping instead")
	workers := fs.Int("workers", 0, "aggregation workers (0: one per CPU, 1: serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	offers, err := loadOffers(fs)
	if err != nil {
		return err
	}
	// CollectAll keeps the error output deterministic when several
	// groups fail: every failure is reported, sorted by group index.
	eng := flex.New(
		flex.WithWorkers(*workers),
		flex.WithGrouping(flex.GroupParams{ESTTolerance: *est, TFTolerance: *tft, MaxGroupSize: *size}),
		flex.WithErrorMode(flex.CollectAll),
	)
	defer eng.Close()
	var ags []*flex.Aggregated
	if *balance {
		// Balance-aware grouping is a partitioning strategy, not an
		// engine option: hand the pre-computed groups to the engine.
		groups := grouping.BalanceGroups(offers, grouping.BalanceParams{ESTTolerance: *est, MaxGroupSize: *size})
		ags, err = eng.AggregateGroups(context.Background(), groups)
	} else {
		ags, err = eng.Aggregate(context.Background(), offers)
	}
	if err != nil {
		return err
	}
	header := []string{"group", "offers", "kind", "tf", "ef", "product loss", "vector_l1 loss"}
	var rows [][]string
	for i, ag := range ags {
		pLoss, err := ag.Loss(core.ProductMeasure{})
		if err != nil {
			return err
		}
		vLoss, err := ag.Loss(core.VectorMeasure{})
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", i), fmt.Sprintf("%d", len(ag.Constituents)),
			ag.Offer.Kind().String(),
			fmt.Sprintf("%d", ag.Offer.TimeFlexibility()),
			fmt.Sprintf("%d", ag.Offer.EnergyFlexibility()),
			fmt.Sprintf("%.0f", pLoss), fmt.Sprintf("%.0f", vLoss),
		})
	}
	fmt.Fprint(out, render.Table(header, rows))
	fmt.Fprintf(out, "%d offers → %d aggregates\n", len(offers), len(ags))
	return nil
}

// cmdRefine rewrites the document at a k-times finer time granularity
// (Section 2's scaling coefficient).
func cmdRefine(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("refine", flag.ContinueOnError)
	k := fs.Int("k", 2, "time refinement factor")
	if err := fs.Parse(args); err != nil {
		return err
	}
	offers, err := loadOffers(fs)
	if err != nil {
		return err
	}
	refined := make([]*flexoffer.FlexOffer, len(offers))
	for i, f := range offers {
		r, err := f.Refine(*k)
		if err != nil {
			return fmt.Errorf("offer %d (%s): %w", i, f.ID, err)
		}
		refined[i] = r
	}
	return flexoffer.Encode(out, refined)
}

// cmdTighten folds the total constraints into the slice bounds
// (slice-bounded form; guarantees aggregate disaggregability) and
// reports the flexibility each offer gave up.
func cmdTighten(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tighten", flag.ContinueOnError)
	quiet := fs.Bool("json", false, "emit the tightened document instead of the report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	offers, err := loadOffers(fs)
	if err != nil {
		return err
	}
	tightened := make([]*flexoffer.FlexOffer, len(offers))
	header := []string{"offer", "entropy before", "entropy after", "bits lost"}
	var rows [][]string
	for i, f := range offers {
		tightened[i] = f.TightenTotals()
		before := core.EntropyFlexibility(f)
		after := core.EntropyFlexibility(tightened[i])
		id := f.ID
		if id == "" {
			id = fmt.Sprintf("#%d", i)
		}
		rows = append(rows, []string{id,
			fmt.Sprintf("%.1f", before), fmt.Sprintf("%.1f", after),
			fmt.Sprintf("%.1f", before-after)})
	}
	if *quiet {
		return flexoffer.Encode(out, tightened)
	}
	fmt.Fprint(out, render.Table(header, rows))
	return nil
}

func cmdSchedule(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("schedule", flag.ContinueOnError)
	horizon := fs.Int("horizon", 48, "scheduling horizon in time units")
	level := fs.Int64("target", -1, "flat target level per slot (-1: fleet average)")
	cap := fs.Int64("cap", 0, "soft peak cap (0: uncapped)")
	pipeline := fs.Bool("pipeline", false, "run group→aggregate→schedule→disaggregate instead of scheduling raw offers")
	asJSON := fs.Bool("json", false, "emit the flexd wire format instead of the summary (with -pipeline)")
	workers := fs.Int("workers", 0, "pipeline worker-pool size (with -pipeline; 0: one per CPU)")
	shards := fs.Int("shards", 1, "engine shard count: >1 scatter-gathers across per-shard pools (bit-identical output)")
	est := fs.Int("est", 2, "earliest-start-time grouping tolerance (with -pipeline)")
	tft := fs.Int("tft", -1, "time-flexibility grouping tolerance (with -pipeline; -1: unbounded)")
	size := fs.Int("max-group", 0, "maximum group size (with -pipeline; 0: unbounded)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *asJSON && !*pipeline {
		return fmt.Errorf("-json requires -pipeline: only the full chain has a wire format")
	}
	offers, err := loadOffers(fs)
	if err != nil {
		return err
	}
	// The shared helper keeps the CLI's target semantics identical to
	// the flexd /v1/schedule endpoint's.
	lvl := server.FlatTargetLevel(offers, *horizon, *level)
	target := timeseries.Constant(0, *horizon, lvl)
	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", *shards)
	}
	// One engine option set serves both the direct and the pipelined
	// schedule, so -cap means the same thing on either path.
	engOpts := []flex.Option{
		flex.WithWorkers(*workers),
		flex.WithGrouping(flex.GroupParams{ESTTolerance: *est, TFTolerance: *tft, MaxGroupSize: *size}),
		// Safe aggregation guarantees the disaggregation stage succeeds
		// for whatever assignments the scheduler picks.
		flex.WithSafe(true),
		flex.WithPeakCap(*cap),
	}
	// By the scatter-gather design every shard count yields the same
	// bytes; -shards only decides how the work is spread.
	eng := flex.NewSharded(*shards, engOpts...)
	defer eng.Close()
	if *pipeline {
		res, err := eng.Pipeline(context.Background(), offers, target)
		if err != nil {
			return err
		}
		if *asJSON {
			// The same wire builder and encoder the flexd endpoint uses:
			// these bytes are the acceptance criterion's reference.
			return server.EncodeResponse(out, server.BuildScheduleResponse(len(offers), res, target, *horizon, lvl))
		}
		prosumers := 0
		for _, parts := range res.Disaggregated {
			prosumers += len(parts)
		}
		fmt.Fprintf(out, "pipelined %d offers → %d aggregates → %d prosumer assignments (%d workers)\n",
			len(offers), len(res.Aggregates), prosumers, eng.Workers())
		fmt.Fprintf(out, "target %d/slot over %d slots\n", lvl, *horizon)
		fmt.Fprintf(out, "imbalance (L1): %.0f   peak load: %d\n",
			res.AggregateSchedule.Imbalance(target), res.AggregateSchedule.PeakLoad())
		return nil
	}
	res, err := eng.Schedule(context.Background(), offers, target)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "scheduled %d offers against a flat target of %d/slot over %d slots\n",
		len(offers), lvl, *horizon)
	fmt.Fprintf(out, "imbalance (L1): %.0f   peak load: %d\n", res.Imbalance(target), res.PeakLoad())
	return nil
}
