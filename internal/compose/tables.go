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

	ownersOf := make(map[spec.Event][]int32)
	for ci, c := range components {
		for _, e := range c.Alphabet() {
			ownersOf[e] = append(ownersOf[e], int32(ci))
		}
	}
	// Global event ids follow sorted-name order, so the external alphabet
	// comes out sorted and integer comparison of its indices agrees with the
	// canonical (string) edge order.
	allEvents := make([]spec.Event, 0, len(ownersOf))
	for e := range ownersOf {
		allEvents = append(allEvents, e)
	}
	sort.Slice(allEvents, func(i, j int) bool { return allEvents[i] < allEvents[j] })
	evID := make(map[spec.Event]int32, len(allEvents))
	extIdx := make([]int32, len(allEvents))
	for i, e := range allEvents {
		evID[e] = int32(i)
		extIdx[i] = -1
		if len(ownersOf[e]) == 1 {
			extIdx[i] = int32(len(t.external))
			t.external = append(t.external, e)
		}
	}

	t.base = make([]int32, len(components))
	var answer []move
	for ci, c := range components {
		t.base[ci] = int32(len(t.rows))
		for s := 0; s < c.NumStates(); s++ {
			var r compRow
			r.intl = int32(len(t.moves))
			for _, to := range c.IntEdges(spec.State(s)) {
				t.moves = append(t.moves, move{to: int32(to), pj: -1})
			}
			r.drive = int32(len(t.moves))
			answer = answer[:0]
			for _, ed := range c.ExtEdges(spec.State(s)) {
				ev := evID[ed.Event]
				m := move{to: int32(ed.To), ev: extIdx[ev], pj: -1}
				switch owners := ownersOf[ed.Event]; {
				case len(owners) == 1:
					t.moves = append(t.moves, m)
				case owners[0] == int32(ci):
					m.ev, m.pj = ev, owners[1]
					t.moves = append(t.moves, m)
				default:
					m.ev = ev
					answer = append(answer, m)
				}
			}
			r.answer = int32(len(t.moves))
			t.moves = append(t.moves, answer...)
			r.end = int32(len(t.moves))
			t.rows = append(t.rows, r)
		}
	}

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
