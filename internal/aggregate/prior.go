package aggregate

import "flexmeasures/internal/flexoffer"

// Prior is a previous run's aggregates in run order: the layouts a
// group aggregated again may copy instead of reading its members'
// offers. A member's layout — its constituent record and its bounds
// span, tightened for a safe aggregate — is a pure function of the
// offer and the layout mode, and offers are never mutated (see
// Aggregated.Constituents), so a layout is copied only from an
// aggregate that
//
//   - holds the identical offer pointer at that constituent index,
//   - was built in the same mode (Aggregate or AggregateSafe), and
//   - has a layout slab (one its caller assembled from just Offer and
//     Constituents has none).
//
// Every other member is read from its offer, tightened and validated
// as without a Prior, so an aggregate built from a Prior equals one
// built from scratch field for field and shares no storage with its
// sources.
//
// A group's members are searched from a Cursor: each is looked for at
// the cursor and a few positions past it, which steps over the members
// removed since the prior run, and a member found moves the cursor past
// itself. The search reads only the prior's pointer slices, never an
// offer.
type Prior []*Aggregated

// Cursor is a position in a Prior: constituent member of aggregate agg.
// The zero Cursor is the Prior's first constituent.
type Cursor struct{ agg, member int }

// maxSkip is how many prior constituents a member's search steps over
// before it counts the member as new. A miss costs maxSkip+1 pointer
// comparisons, and only members that are new, replaced or moved miss.
const maxSkip = 16

// First returns the position of aggregate i's first constituent.
func (p Prior) First(i int) Cursor { return Cursor{agg: i} }

// settle moves c forward to the next position that holds a
// constituent, or to the end (agg = len(p)).
func (p Prior) settle(c Cursor) Cursor {
	for c.agg < len(p) && c.member >= len(p[c.agg].Constituents) {
		c.agg++
		c.member = 0
	}
	return c
}

// advance returns the position k constituents past c.
func (p Prior) advance(c Cursor, k int) Cursor {
	for c = p.settle(c); c.agg < len(p); c = p.settle(c) {
		rest := len(p[c.agg].Constituents) - c.member
		if k < rest {
			c.member += k
			return c
		}
		k -= rest
		c.agg++
		c.member = 0
	}
	return c
}

// find returns f's position at or at most maxSkip constituents past c,
// and false when f is not there.
func (p Prior) find(c Cursor, f *flexoffer.FlexOffer) (Cursor, bool) {
	c = p.settle(c)
	for d := 0; d <= maxSkip && c.agg < len(p); d++ {
		if p[c.agg].Constituents[c.member] == f {
			return c, true
		}
		c.member++
		c = p.settle(c)
	}
	return c, false
}

// source finds member f from *at and, when found, moves *at past it.
// It returns the prior aggregate and constituent index f's layout is
// copied from, and false when the layout must be built from the offer:
// f is not found, or its aggregate was built in another mode or has no
// layout slab.
func (p Prior) source(at *Cursor, f *flexoffer.FlexOffer, mode layoutMode) (*Aggregated, int, bool) {
	c, ok := p.find(*at, f)
	if !ok {
		return nil, 0, false
	}
	*at = Cursor{agg: c.agg, member: c.member + 1}
	a := p[c.agg]
	// An aggregate without a slab has the zero mode; the length check
	// also covers Constituents grown by a caller past the layouts.
	return a, c.member, a.mode == mode && c.member < len(a.cons)
}

// Skip returns the position past group's members when the search
// starts at c: the cursor the next group's search starts from. When
// the group's last member sits where it would if no member of the
// group was removed or added, that is one comparison; otherwise every
// member is searched for as layoutOf will.
func (p Prior) Skip(c Cursor, group []*flexoffer.FlexOffer) Cursor {
	if len(group) == 0 || p.settle(c).agg == len(p) {
		return c
	}
	if e := p.advance(c, len(group)-1); e.agg < len(p) && p[e.agg].Constituents[e.member] == group[len(group)-1] {
		return Cursor{agg: e.agg, member: e.member + 1}
	}
	for _, f := range group {
		if at, ok := p.find(c, f); ok {
			c = Cursor{agg: at.agg, member: at.member + 1}
		}
	}
	return c
}

// Sources says where a batch of groups may copy member layouts from:
// group i is searched in Prior from Starts[i]. The zero value copies
// nothing.
type Sources struct {
	Prior  Prior
	Starts []Cursor
}

// Block returns the sources of the batch's groups [lo, hi).
func (s Sources) Block(lo, hi int) Sources {
	if s.Starts == nil {
		return s
	}
	return Sources{Prior: s.Prior, Starts: s.Starts[lo:hi]}
}

// of returns group i's source.
func (s Sources) of(i int) source {
	if s.Starts == nil {
		return source{}
	}
	return source{prior: s.Prior, at: s.Starts[i]}
}

// source is one group's: the prior and where its search starts. The
// zero value copies nothing.
type source struct {
	prior Prior
	at    Cursor
}
