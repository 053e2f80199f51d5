// Streaming counterexample construction.
//
// When a derivation proves nonexistence, the engine owes the caller more
// than a verdict: a concrete run of B that exhibits the violation. The
// closure walks that discover a safety violation abort at the first
// offending pair (parallel.go), and the progress phase records only the
// first failing pair of the initial state, so the run is reconstructed here
// by one breadth-first search over the h.ε closure graph — seeds, B's
// internal moves, and ψ-stepped external moves. BFS gives a shortest run,
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

// witness finds a shortest external trace B can drive from the initial
// configuration without any converter action, by BFS over the h.ε closure
// graph. It returns the trace to pair target (a progress failure's blamed
// pair, which the progress phase takes from state 0's pair set, exactly
// that closure). If the search first meets an external event the service
// forbids, it returns the trace to that pair followed by the forbidden
// event: an ok(h.ε) failure, the safety case, which cannot occur after a
// passed safety phase. Pass target < 0 to search for the safety case only.
// Returns nil if neither is reachable.
func (d *deriver) witness(target int32) []spec.Event {
	numA := int32(d.numA)
	// visited is a bit vector over the pair domain, grown on demand: the
	// domain grows during an aborted safety phase over a demand-driven
	// environment.
	var visited []uint64
	nodes := make([]witnessNode, 0, 64)
	push := func(p, parent, ev int32) {
		w := int(p >> 6)
		if w >= len(visited) {
			grown := make([]uint64, max(2*len(visited), w+64))
			copy(grown, visited)
			visited = grown
		}
		bit := uint64(1) << (uint(p) & 63)
		if visited[w]&bit != 0 {
			return
		}
		visited[w] |= bit
		nodes = append(nodes, witnessNode{pair: p, parent: parent, ev: ev})
	}
	for _, p := range d.initSeeds() {
		push(p, -1, -1)
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
				return append(d.traceTo(nodes, int32(head)), d.events[ed.Ev])
			}
			push((off+ed.To)*numA+a2, int32(head), ed.Ev)
		}
	}
	return nil
}
