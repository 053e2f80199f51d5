// Compiled component tables for the demand-driven composition.
//
// Everything LazyMany can precompute without touching a single composite
// state — global event interning, the rendezvous partner table,
// per-component dense edge rows — lives here, so expansion is map-free.
package compose

import (
	"fmt"
	"math/bits"
	"sort"

	"protoquot/internal/spec"
)

// cedge is one component transition over global event ids.
type cedge struct{ ev, to int32 }

// compTables is the compiled read-only description of a component list.
type compTables struct {
	// external is the composite's external alphabet: the events owned by
	// exactly one component, sorted. extIdx maps a global event id to its
	// position in external, or -1 for shared (internal) events.
	external []spec.Event
	extIdx   []int32
	// partner[ci][ev] is the other owner of a shared event, or -1. Stored
	// densely per component to keep the product loops map-free.
	partner [][]int32
	// Per-component dense edge tables over global event ids.
	cext  [][][]cedge
	cintl [][][]int32
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
	t.extIdx = make([]int32, len(allEvents))
	for i, e := range allEvents {
		evID[e] = int32(i)
		t.extIdx[i] = -1
		if len(ownersOf[e]) == 1 {
			t.extIdx[i] = int32(len(t.external))
			t.external = append(t.external, e)
		}
	}

	nev := len(allEvents)
	t.partner = make([][]int32, len(components))
	for ci := range components {
		t.partner[ci] = make([]int32, nev)
		for i := range t.partner[ci] {
			t.partner[ci][i] = -1
		}
	}
	for e, owners := range ownersOf {
		if len(owners) == 2 {
			t.partner[owners[0]][evID[e]] = owners[1]
			t.partner[owners[1]][evID[e]] = owners[0]
		}
	}

	t.cext = make([][][]cedge, len(components))
	t.cintl = make([][][]int32, len(components))
	for ci, c := range components {
		t.cext[ci] = make([][]cedge, c.NumStates())
		t.cintl[ci] = make([][]int32, c.NumStates())
		for s := 0; s < c.NumStates(); s++ {
			for _, ed := range c.ExtEdges(spec.State(s)) {
				t.cext[ci][s] = append(t.cext[ci][s], cedge{ev: evID[ed.Event], to: int32(ed.To)})
			}
			for _, to := range c.IntEdges(spec.State(s)) {
				t.cintl[ci][s] = append(t.cintl[ci][s], int32(to))
			}
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
