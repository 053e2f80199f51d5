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
// definition is never materialized. There is one composition algorithm,
// the demand-driven n-way product of lazy.go: Many saturates it into an
// eager Spec. internal/oracle keeps the paper's pairwise ‖ as the
// reference the tests compare it against.
package compose

import (
	"fmt"
	"sort"
	"strings"

	"protoquot/internal/spec"
)

// StateSep separates component state names inside a composite state name:
// the composite of states "a", "b" and "c" is named "a|b|c".
const StateSep = "|"

// Many returns the reachable composition s0 ‖ s1 ‖ … of the components as
// an eager *spec.Spec: it builds LazyMany's demand-driven product and
// saturates it (Lazy.Spec), so state numbering is the breadth-first
// expansion order from the composite initial state. The composite name is
// the left fold's, "((s0||s1)||s2)". A lone component is returned
// unchanged. Because shared events are hidden pairwise, an event name
// occurring in three or more components would synchronize with the wrong
// partner or vanish early; Many reports that as an error. Use distinct
// event names per interface (the paper's systems all do).
func Many(specs ...*spec.Spec) (*spec.Spec, error) {
	if len(specs) == 1 {
		return specs[0], nil
	}
	x, err := LazyMany(specs...)
	if err != nil {
		return nil, err
	}
	return x.Spec()
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
