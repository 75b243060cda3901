package aggregate

// Multi-hop repair for Disaggregate. The single-hop pass in aggregate.go
// moves energy directly between two constituents sharing a slot; when a
// deficient constituent's neighbours have no slack of their own, the
// transfer must chain through intermediaries (A gains from B at slot t,
// B regains from C at slot t', …, until the chain ends at a constituent
// with genuine slack). That is an augmenting path in the bipartite
// offers×slots transfer graph, and searching for one per missing unit
// solves the underlying transportation feasibility problem exactly: if
// no augmenting path exists, the aggregate assignment is genuinely
// undecomposable and ErrRepairInfeasible is correct.

// repairStep records one hop of an augmenting path: constituent gainer
// takes the bottleneck amount from constituent loser in absolute slot
// abs.
type repairStep struct {
	gainer, loser int
	abs           int
}

// pathState is one constituent's BFS bookkeeping.
type pathState struct {
	prev    int   // predecessor constituent, -1 for the source
	prevAbs int   // absolute slot used to reach this constituent
	cap     int64 // bottleneck capacity of the chain so far
}

// augmentInto raises constituent target's total by up to need using
// augmenting-path transfers, preserving all slot sums and slice bounds
// and never driving any other constituent below its own total minimum.
// It returns the amount actually moved.
func (sp *split) augmentInto(target int, need int64) int64 {
	var moved int64
	for moved < need {
		path, bottleneck := sp.findPath(target, need-moved)
		if len(path) == 0 || bottleneck <= 0 {
			break
		}
		sp.apply(path, bottleneck)
		moved += bottleneck
	}
	return moved
}

// augmentOutOf lowers constituent target's total by up to excess, the
// mirror image of augmentInto: the chain pushes energy away from target
// towards a constituent with headroom below its total maximum.
func (sp *split) augmentOutOf(target int, excess int64) int64 {
	var moved int64
	for moved < excess {
		path, bottleneck := sp.findDrainPath(target, excess-moved)
		if len(path) == 0 || bottleneck <= 0 {
			break
		}
		sp.apply(path, bottleneck)
		moved += bottleneck
	}
	return moved
}

// apply moves amt along every hop of an augmenting path.
func (sp *split) apply(path []repairStep, amt int64) {
	for _, st := range path {
		p, _ := sp.at(st.gainer, st.abs)
		q, _ := sp.at(st.loser, st.abs)
		sp.move(st.gainer, p, st.loser, q, amt)
	}
}

// findPath searches breadth-first for a chain of same-slot transfers
// ending at a constituent that can give up energy while staying at or
// above its total minimum. Hops are returned in application order with
// the bottleneck amount (capped at want).
func (sp *split) findPath(target int, want int64) ([]repairStep, int64) {
	n := len(sp.cons)
	visited := make([]bool, n)
	states := make([]pathState, n)
	queue := []int{target}
	visited[target] = true
	states[target] = pathState{prev: -1, cap: want}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		c := &sp.cons[cur]
		for j := 0; j < int(c.n); j++ {
			abs := sp.out[cur].Start + j
			p := int(c.lo) + j
			gainRoom := sp.bounds[p].Max - sp.vals[p]
			if gainRoom <= 0 {
				continue
			}
			for k := range sp.cons {
				if visited[k] || k == cur {
					continue
				}
				q, ok := sp.at(k, abs)
				if !ok {
					continue
				}
				slotSpare := sp.vals[q] - sp.bounds[q].Min
				if slotSpare <= 0 {
					continue
				}
				bottleneck := min(states[cur].cap, gainRoom, slotSpare)
				visited[k] = true
				states[k] = pathState{prev: cur, prevAbs: abs, cap: bottleneck}
				if totalSpare := sp.totals[k] - sp.cons[k].totalMin; totalSpare > 0 {
					return tracePath(states, k), min(bottleneck, totalSpare)
				}
				queue = append(queue, k)
			}
		}
	}
	return nil, 0
}

// findDrainPath is findPath with the transfer direction reversed: the
// source sheds energy hop by hop until a constituent with total headroom
// absorbs it.
func (sp *split) findDrainPath(target int, want int64) ([]repairStep, int64) {
	n := len(sp.cons)
	visited := make([]bool, n)
	states := make([]pathState, n)
	queue := []int{target}
	visited[target] = true
	states[target] = pathState{prev: -1, cap: want}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		c := &sp.cons[cur]
		for j := 0; j < int(c.n); j++ {
			abs := sp.out[cur].Start + j
			p := int(c.lo) + j
			loseSpare := sp.vals[p] - sp.bounds[p].Min
			if loseSpare <= 0 {
				continue
			}
			for k := range sp.cons {
				if visited[k] || k == cur {
					continue
				}
				q, ok := sp.at(k, abs)
				if !ok {
					continue
				}
				gainRoom := sp.bounds[q].Max - sp.vals[q]
				if gainRoom <= 0 {
					continue
				}
				bottleneck := min(states[cur].cap, loseSpare, gainRoom)
				visited[k] = true
				states[k] = pathState{prev: cur, prevAbs: abs, cap: bottleneck}
				if headroom := sp.cons[k].totalMax - sp.totals[k]; headroom > 0 {
					return traceDrainPath(states, k), min(bottleneck, headroom)
				}
				queue = append(queue, k)
			}
		}
	}
	return nil, 0
}

// tracePath reconstructs hops for findPath: walking predecessors from
// the chain end towards the target, each predecessor gains from its
// successor.
func tracePath(states []pathState, end int) []repairStep {
	var path []repairStep
	for cur := end; states[cur].prev >= 0; cur = states[cur].prev {
		path = append(path, repairStep{
			gainer: states[cur].prev,
			loser:  cur,
			abs:    states[cur].prevAbs,
		})
	}
	return path
}

// traceDrainPath reconstructs hops for findDrainPath: each predecessor
// loses to its successor.
func traceDrainPath(states []pathState, end int) []repairStep {
	var path []repairStep
	for cur := end; states[cur].prev >= 0; cur = states[cur].prev {
		path = append(path, repairStep{
			gainer: cur,
			loser:  states[cur].prev,
			abs:    states[cur].prevAbs,
		})
	}
	return path
}
