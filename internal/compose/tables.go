// Compiled component tables for the demand-driven composition.
//
// Everything LazyMany can precompute without touching a single composite
// state — global event interning, the rendezvous partners, each
// component's transitions as flat rows with their key deltas — lives here,
// so expansion is map-free and reads a component's row as one contiguous
// range.
package compose

import (
	"fmt"
	"math/bits"
	"sort"

	"protoquot/internal/spec"
)

// move is one component transition in a compiled row. delta is the key
// change the move makes, (to − from)·weight of the moving component, so a
// successor's key is the parent's plus the deltas of the components that
// move; it is 0 on the string tier, which has no key.
type move struct {
	delta uint64
	to    int32
	// ev is the external alphabet index of an external edge, and the
	// global event id of a shared one.
	ev int32
	// pj is the other owner of a shared event, or -1 for an internal move
	// or an external edge.
	pj int32
}

// compRow is one component state's transitions: its internal moves are
// moves[intl:drive]; its drive edges, moves[drive:answer], are its
// external edges and the shared edges whose other owner has the higher
// index, so that this component drives the rendezvous; its answer edges,
// moves[answer:end], are the shared edges whose other owner has the lower
// index and drives them.
type compRow struct{ intl, drive, answer, end int32 }

// compTables is the compiled read-only description of a component list.
type compTables struct {
	// external is the composite's external alphabet: the events owned by
	// exactly one component, sorted.
	external []spec.Event
	// The components' transitions, compiled into one flat array of moves.
	// Component ci's state s is rows[base[ci]+s], three consecutive
	// ranges of moves, each in the component's own edge order.
	base  []int32
	rows  []compRow
	moves []move
	// keyBits is the width of the bit-field state key: each component's
	// state gets its own field of bits.Len(NumStates−1) bits. product is
	// the tuple count Π NumStates, the key space of the mixed-radix key,
	// and productOK reports that it fits a uint64 (product is meaningless
	// otherwise). intern.go chooses the tier and the layout from these.
	keyBits   int
	product   uint64
	productOK bool
}

// denseInternLimit is the largest key space for which tuple interning
// uses the paged direct-mapped array (intern.go) instead of a hash table;
// denseKeyBits is its width, the widest bit-field key it takes. Successor interning is the hottest loop of the
// composition; the array turns each lookup into one indexed load. Pages
// are allocated only for touched key ranges, so the limit is bounded by
// the page-directory size (a 2^30 key space needs a 16K-pointer
// directory, and only the explored slice pays for pages), not by key
// space × 4 bytes as a flat array would be.
const (
	denseKeyBits     = 30
	denseInternLimit = 1 << denseKeyBits
)

// compileComponents validates the component list (pairwise-disjoint
// interfaces, as Many requires) and builds the shared tables.
func compileComponents(components []*spec.Spec) (*compTables, error) {
	if err := CheckPairwiseInterfaces(components...); err != nil {
		return nil, err
	}
	t := &compTables{}

	// An event's global id, external index (-1 when shared) and owners, in
	// one record, so compiling an edge costs one map lookup.
	type evInfo struct {
		id, ext int32
		owners  []int32
	}
	events := make(map[spec.Event]evInfo)
	for ci, c := range components {
		for _, e := range c.Alphabet() {
			in := events[e]
			in.owners = append(in.owners, int32(ci))
			events[e] = in
		}
	}
	// Global event ids follow sorted-name order, so the external alphabet
	// comes out sorted and integer comparison of its indices agrees with the
	// canonical (string) edge order.
	allEvents := make([]spec.Event, 0, len(events))
	for e := range events {
		allEvents = append(allEvents, e)
	}
	sort.Slice(allEvents, func(i, j int) bool { return allEvents[i] < allEvents[j] })
	for i, e := range allEvents {
		in := events[e]
		in.id, in.ext = int32(i), -1
		if len(in.owners) == 1 {
			in.ext = int32(len(t.external))
			t.external = append(t.external, e)
		}
		events[e] = in
	}

	// Size the flat arrays once: on a large component, growing them by
	// append cost more than filling them.
	nRows, nMoves := 0, 0
	for _, c := range components {
		nRows += c.NumStates()
		nMoves += c.NumExternalTransitions() + c.NumInternalTransitions()
	}
	t.base = make([]int32, len(components))
	rows := make([]compRow, 0, nRows)
	moves := make([]move, 0, nMoves)
	var answer []move
	for ci, c := range components {
		t.base[ci] = int32(len(rows))
		for s := 0; s < c.NumStates(); s++ {
			var r compRow
			r.intl = int32(len(moves))
			for _, to := range c.IntEdges(spec.State(s)) {
				moves = append(moves, move{to: int32(to), pj: -1})
			}
			r.drive = int32(len(moves))
			answer = answer[:0]
			for _, ed := range c.ExtEdges(spec.State(s)) {
				in := events[ed.Event]
				m := move{to: int32(ed.To), ev: in.ext, pj: -1}
				switch {
				case len(in.owners) == 1:
					moves = append(moves, m)
				case in.owners[0] == int32(ci):
					m.ev, m.pj = in.id, in.owners[1]
					moves = append(moves, m)
				default:
					m.ev = in.id
					answer = append(answer, m)
				}
			}
			r.answer = int32(len(moves))
			moves = append(moves, answer...)
			r.end = int32(len(moves))
			rows = append(rows, r)
		}
	}
	t.rows, t.moves = rows, moves

	t.product, t.productOK = 1, true
	for _, c := range components {
		n := c.NumStates()
		if n == 0 {
			// A zero-state component has no initial state and no product
			// to speak of, so reject it outright.
			return nil, fmt.Errorf("compose: component %s has no states", c.Name())
		}
		t.keyBits += bits.Len(uint(n - 1))
		hi, lo := bits.Mul64(t.product, uint64(n))
		t.product, t.productOK = lo, t.productOK && hi == 0
	}
	return t, nil
}

// weigh sets every move's key delta for the key weights of a key tier:
// weights[ci] is component ci's place value in the state key.
func (t *compTables) weigh(weights []uint64) {
	for ci, b := range t.base {
		end := int32(len(t.rows))
		if ci+1 < len(t.base) {
			end = t.base[ci+1]
		}
		for s, r := range t.rows[b:end] {
			for i := r.intl; i < r.end; i++ {
				t.moves[i].delta = uint64(int64(t.moves[i].to)-int64(s)) * weights[ci]
			}
		}
	}
}

// MinimizeComponents returns the component list with every machine replaced
// by its strong-bisimulation minimization (spec.Minimize). Minimization is a
// congruence for composition — each component stays strongly bisimilar, so
// the composite, and any quotient derived from it, keeps the same language
// and the same satisfaction properties — while the product state space can
// shrink multiplicatively. This is the pre-reduction behind
// core.Options.MinimizeComponents and the quotient -minimize-env flag.
func MinimizeComponents(components ...*spec.Spec) []*spec.Spec {
	out := make([]*spec.Spec, len(components))
	for i, c := range components {
		out[i] = c.Minimize()
	}
	return out
}
