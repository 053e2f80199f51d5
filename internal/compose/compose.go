// Package compose implements the composition operator ‖ of Calvert & Lam
// (SIGCOMM 1989, §3). Composition makes two specifications part of each
// other's environment: events in Σ_A ∩ Σ_B synchronize — they occur only
// when enabled in both components — and become internal transitions of the
// composite, hidden from the rest of the environment. Events unique to one
// component interleave and remain external. The composite alphabet is the
// symmetric difference (Σ_A ∪ Σ_B) − (Σ_A ∩ Σ_B).
//
// The package builds only the reachable part of the product, which is what
// every downstream analysis needs; the full S_A × S_B space of the paper's
// definition is never materialized.
package compose

import (
	"fmt"
	"sort"
	"strings"

	"protoquot/internal/spec"
)

// StateSep separates component state names inside a composite state name:
// the composite of states "a" and "b" is named "a|b".
const StateSep = "|"

// Pair composes two specifications per the paper's definition, returning
// the reachable part of A‖B. Composite state names are
// "aName|bName".
func Pair(a, b *spec.Spec) *spec.Spec {
	shared := sharedEvents(a, b)

	name := fmt.Sprintf("(%s||%s)", a.Name(), b.Name())
	bb := spec.NewBuilder(name)
	// Alphabet: symmetric difference, declared up front so unused interface
	// events survive composition (they are part of the interface).
	for _, e := range a.Alphabet() {
		if _, ok := shared[e]; !ok {
			bb.Event(e)
		}
	}
	for _, e := range b.Alphabet() {
		if _, ok := shared[e]; !ok {
			bb.Event(e)
		}
	}

	// The name cache doubles as the seen set: a pair has been discovered
	// iff its composite name has been built. Naming every visited pair
	// exactly once matters because each pair is renamed O(degree) times
	// during edge emission, and string concatenation dominated profiles of
	// Verify-heavy workloads.
	type pair struct{ pa, pb spec.State }
	names := make(map[pair]string, a.NumStates()*b.NumStates())
	nameOf := func(p pair) string {
		if n, ok := names[p]; ok {
			return n
		}
		n := a.StateName(p.pa) + StateSep + b.StateName(p.pb)
		names[p] = n
		return n
	}
	init := pair{a.Init(), b.Init()}
	bb.Init(nameOf(init))
	seen := make(map[pair]bool, a.NumStates()*b.NumStates())
	seen[init] = true
	work := make([]pair, 0, 64)
	work = append(work, init)
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		from := nameOf(p)
		push := func(q pair) {
			if !seen[q] {
				seen[q] = true
				work = append(work, q)
			}
		}
		// External moves of A (events not shared).
		for _, ed := range a.ExtEdges(p.pa) {
			if _, ok := shared[ed.Event]; ok {
				continue
			}
			q := pair{ed.To, p.pb}
			bb.Ext(from, ed.Event, nameOf(q))
			push(q)
		}
		// External moves of B (events not shared).
		for _, ed := range b.ExtEdges(p.pb) {
			if _, ok := shared[ed.Event]; ok {
				continue
			}
			q := pair{p.pa, ed.To}
			bb.Ext(from, ed.Event, nameOf(q))
			push(q)
		}
		// Internal moves of either component.
		for _, t := range a.IntEdges(p.pa) {
			q := pair{t, p.pb}
			bb.Int(from, nameOf(q))
			push(q)
		}
		for _, t := range b.IntEdges(p.pb) {
			q := pair{p.pa, t}
			bb.Int(from, nameOf(q))
			push(q)
		}
		// Synchronized shared events become internal.
		for _, ed := range a.ExtEdges(p.pa) {
			if _, ok := shared[ed.Event]; !ok {
				continue
			}
			for _, bd := range b.ExtEdges(p.pb) {
				if bd.Event != ed.Event {
					continue
				}
				q := pair{ed.To, bd.To}
				bb.Int(from, nameOf(q))
				push(q)
			}
		}
	}
	return bb.MustBuild()
}

// Many composes specs left to right: ((s0 ‖ s1) ‖ s2) ‖ ….
// Because shared events are hidden pairwise, an event name occurring in
// three or more components would synchronize with the wrong partner or
// vanish early; Many reports that as an error. Use distinct event names per
// interface (the paper's systems all do).
func Many(specs ...*spec.Spec) (*spec.Spec, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("compose: no components")
	}
	if err := CheckPairwiseInterfaces(specs...); err != nil {
		return nil, err
	}
	cur := specs[0]
	for _, s := range specs[1:] {
		cur = Pair(cur, s)
	}
	return cur, nil
}

// MustMany is Many that panics on error, for statically known systems.
func MustMany(specs ...*spec.Spec) *spec.Spec {
	s, err := Many(specs...)
	if err != nil {
		panic(err)
	}
	return s
}

// CheckPairwiseInterfaces verifies that no event name is in the alphabet of
// three or more components, the precondition for Many to implement the
// intended pairwise rendezvous semantics.
func CheckPairwiseInterfaces(specs ...*spec.Spec) error {
	owners := make(map[spec.Event][]string)
	for _, s := range specs {
		for _, e := range s.Alphabet() {
			owners[e] = append(owners[e], s.Name())
		}
	}
	var bad []string
	for e, names := range owners {
		if len(names) > 2 {
			bad = append(bad, fmt.Sprintf("%s (in %s)", e, strings.Join(names, ", ")))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("compose: events shared by more than two components: %s", strings.Join(bad, "; "))
	}
	return nil
}

// sharedEvents returns Σ_A ∩ Σ_B.
func sharedEvents(a, b *spec.Spec) map[spec.Event]struct{} {
	out := make(map[spec.Event]struct{})
	for _, e := range a.Alphabet() {
		if b.HasEvent(e) {
			out[e] = struct{}{}
		}
	}
	return out
}

// Hidden returns the events that Pair(a, b) hides, i.e. Σ_A ∩ Σ_B, sorted.
func Hidden(a, b *spec.Spec) []spec.Event {
	set := sharedEvents(a, b)
	out := make([]spec.Event, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
