package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/workload"
)

// Fleet layout. Offer i belongs to ID cluster i mod clusters. A
// clustered fleet also starts every offer of cluster c at slot
// c*spacing — arrival waves — so the grouping's EST-gap cuts split the
// fleet into one independent segment per cluster. A dense fleet keeps
// the generator's start times over `days` days, which leave no gap
// wider than the grouping tolerance: one segment.
const (
	clusters = 64
	spacing  = 3
	days     = 2
)

// fleet is a workload's offer population as the benchmark tracks it:
// the IDs, the layout, and the generator that makes replacement
// content. Re-submissions reuse existing IDs, so last-write-wins keeps
// the store at a fixed size.
type fleet struct {
	rng       *rand.Rand
	mix       workload.Mix
	clustered bool
	ids       []string
	// horizon is the schedule horizon: the latest end of the initial
	// fleet plus a day, so replacements fit too.
	horizon int
}

// newFleet generates n offers from the seed and returns the fleet with
// the initial offers.
func newFleet(seed int64, n int, clustered bool) (*fleet, []*flexoffer.FlexOffer, error) {
	fl := &fleet{
		rng:       rand.New(rand.NewSource(seed)),
		mix:       workload.DefaultMix(),
		clustered: clustered,
		ids:       make([]string, n),
	}
	for i := range fl.ids {
		fl.ids[i] = fmt.Sprintf("o-%07d", i)
	}
	offers := make([]*flexoffer.FlexOffer, n)
	for i := range offers {
		f, err := fl.replacement(i)
		if err != nil {
			return nil, nil, err
		}
		offers[i] = f
		if end := f.LatestStart + len(f.Slices); end > fl.horizon {
			fl.horizon = end
		}
	}
	fl.horizon += workload.SlotsPerDay
	return fl, offers, nil
}

// replacement generates fresh content for offer i under its ID: a new
// device draw placed the way workload.Population places it, then moved
// to the offer's cluster slot in a clustered fleet.
func (fl *fleet) replacement(i int) (*flexoffer.FlexOffer, error) {
	d, err := fl.mix.Sample(fl.rng)
	if err != nil {
		return nil, err
	}
	f, err := workload.Generate(fl.rng, d)
	if err != nil {
		return nil, err
	}
	shift := fl.rng.Intn(days) * workload.SlotsPerDay
	if fl.clustered {
		shift = (i%clusters)*spacing - f.EarliestStart
	}
	if f, err = f.Shift(shift); err != nil {
		return nil, err
	}
	f.ID = fl.ids[i]
	return f, nil
}

// clusterChurn re-submits k distinct offers of one randomly chosen ID
// cluster — one dispatch cycle's changes.
func (fl *fleet) clusterChurn(k int) ([]*flexoffer.FlexOffer, error) {
	c := fl.rng.Intn(clusters)
	size := (len(fl.ids) - c + clusters - 1) / clusters
	if k > size {
		k = size
	}
	out := make([]*flexoffer.FlexOffer, k)
	for j, p := range fl.rng.Perm(size)[:k] {
		f, err := fl.replacement(c + p*clusters)
		if err != nil {
			return nil, err
		}
		out[j] = f
	}
	return out, nil
}

// scatterChurn re-submits k distinct offers chosen uniformly across the
// fleet.
func (fl *fleet) scatterChurn(k int) ([]*flexoffer.FlexOffer, error) {
	if k > len(fl.ids) {
		k = len(fl.ids)
	}
	out := make([]*flexoffer.FlexOffer, 0, k)
	seen := make(map[int]bool, k)
	for len(out) < k {
		i := fl.rng.Intn(len(fl.ids))
		if seen[i] {
			continue
		}
		seen[i] = true
		f, err := fl.replacement(i)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// ndjson encodes offers in flexd's ingest wire format.
func ndjson(offers []*flexoffer.FlexOffer) ([]byte, error) {
	var buf bytes.Buffer
	err := flexoffer.EncodeNDJSON(&buf, offers)
	return buf.Bytes(), err
}
