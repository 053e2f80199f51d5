// Streaming counterexample construction.
//
// When a derivation proves nonexistence, the engine owes the caller more
// than a verdict: a concrete run of B that exhibits the violation. The
// closure walks that discover violations abort at the first offending pair
// (parallel.go), so the witness is reconstructed here by a separate
// breadth-first search over the same pair graph — seeds, B's internal
// moves, and ψ-stepped external moves. BFS gives a shortest offending run,
// and because it re-walks only the ball around the violation it never
// forces expansion of environment rows the derivation did not already need:
// every pair it can reach lies inside h.ε, whose states the safety phase
// expanded (or, for an aborted safety phase, inside the prefix of the ball
// that contains the nearest violation).
//
// Witness traces are diagnostics: they are deliberately excluded from the
// bit-identity surface the golden and differential suites compare (error
// strings and stats), because a trace singles out one offending run among
// possibly many equally short ones and carries demand-order state ids in
// its intermediate structure.
package core

import "protoquot/internal/spec"

// witnessNode is one BFS node: the pair reached, the node it was discovered
// from (-1 for seeds), and the Σ_B event id of the discovering edge (-1 for
// B's internal moves, which are invisible in an external trace).
type witnessNode struct {
	pair   int32
	parent int32
	ev     int32
}

// traceTo reconstructs the external-event trace from the BFS roots to node
// i by walking parent links and dropping silent steps.
func (d *deriver) traceTo(nodes []witnessNode, i int32) []spec.Event {
	var rev []spec.Event
	for ; i >= 0; i = nodes[i].parent {
		if nodes[i].ev >= 0 {
			rev = append(rev, d.events[nodes[i].ev])
		}
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

// safetyWitness finds a shortest run witnessing an ok(h.ε) failure: an
// external trace B can drive, without any converter action, to a pair where
// B emits an external event the service forbids. The returned trace ends
// with that forbidden event. Returns nil if no violation is reachable
// (never the case when the h.ε closure reported ok = false).
func (d *deriver) safetyWitness(seeds []int32) []spec.Event {
	numA := int32(d.numA)
	visited := make(map[int32]struct{}, 64)
	nodes := make([]witnessNode, 0, 64)
	push := func(p, parent, ev int32) {
		if _, seen := visited[p]; seen {
			return
		}
		visited[p] = struct{}{}
		nodes = append(nodes, witnessNode{pair: p, parent: parent, ev: ev})
	}
	for _, p := range seeds {
		push(p, -1, -1)
	}
	for head := 0; head < len(nodes); head++ {
		p := nodes[head].pair
		a := p % numA
		ext, ints, off := d.rowsPacked(p / numA)
		for _, t := range ints {
			push((off+t)*numA+a, int32(head), -1)
		}
		arow := int(a) * d.nev
		for _, ed := range ext {
			if !d.isExt[ed.Ev] {
				continue
			}
			a2 := d.psi[arow+int(ed.Ev)]
			if a2 < 0 {
				return append(d.traceTo(nodes, int32(head)), d.events[ed.Ev])
			}
			push((off+ed.To)*numA+a2, int32(head), ed.Ev)
		}
	}
	return nil
}

// denseParentThreshold bounds the pair domain up to which progressWitness
// uses a flat visited array; larger domains fall back to a map sized by the
// ball actually explored.
const denseParentThreshold = 1 << 24

// progressWitness finds an external trace from the initial configuration to
// the blamed pair of a progress failure: BFS over the h.ε closure graph
// (the progress phase only blames pairs of state 0's pair set, which is
// exactly that closure, so the target is always reachable). Returns nil for
// target < 0.
func (d *deriver) progressWitness(target int32) []spec.Event {
	if target < 0 {
		return nil
	}
	numA := int32(d.numA)
	// Visited tracking: a flat parent-index array over the pair domain when
	// it fits, a map otherwise. The domain is fixed here — progress runs
	// after the safety phase stopped discovering states.
	var dense []int32
	var sparse map[int32]struct{}
	domain := int(d.prog.totalB) * d.numA
	if domain <= denseParentThreshold {
		dense = make([]int32, domain)
		for i := range dense {
			dense[i] = -1
		}
	} else {
		sparse = make(map[int32]struct{}, 1024)
	}
	nodes := make([]witnessNode, 0, 64)
	push := func(p, parent, ev int32) {
		if dense != nil {
			if dense[p] >= 0 {
				return
			}
			dense[p] = int32(len(nodes))
		} else {
			if _, seen := sparse[p]; seen {
				return
			}
			sparse[p] = struct{}{}
		}
		nodes = append(nodes, witnessNode{pair: p, parent: parent, ev: ev})
	}
	for v, b := range d.bs {
		push(d.encode(v, int32(d.a.Init()), int32(b.Init())), -1, -1)
	}
	for head := 0; head < len(nodes); head++ {
		p := nodes[head].pair
		if p == target {
			return d.traceTo(nodes, int32(head))
		}
		a := p % numA
		ext, ints, off := d.rowsPacked(p / numA)
		for _, t := range ints {
			push((off+t)*numA+a, int32(head), -1)
		}
		arow := int(a) * d.nev
		for _, ed := range ext {
			if !d.isExt[ed.Ev] {
				continue
			}
			a2 := d.psi[arow+int(ed.Ev)]
			if a2 < 0 {
				continue // cannot happen after a passed safety phase
			}
			push((off+ed.To)*numA+a2, int32(head), ed.Ev)
		}
	}
	return nil
}
