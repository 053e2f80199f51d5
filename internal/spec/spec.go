// Package spec implements the finite-state specification model of
// Calvert & Lam, "Deriving a Protocol Converter: A Top-Down Method"
// (SIGCOMM 1989), Section 3.
//
// A specification is a tuple (S, Σ, T, λ, s0):
//
//   - S is a nonempty finite set of states,
//   - Σ is a finite set of event names (the interface),
//   - T ⊆ S × Σ × S is the external transition relation,
//   - λ ⊆ S × S is the internal transition relation, and
//   - s0 ∈ S is the initial state.
//
// External events model synchronized interactions with the environment:
// an event occurs only when it is enabled on both sides of the interface.
// Internal transitions occur without environmental participation and are
// the model's source of nondeterminism.
//
// Specs are immutable once built (see Builder). Sink sets, the ready sets
// τ and τ* and reachability are precomputed at build time, τ* and sinks
// once per λ-SCC; λ*-closures, trace membership, normal form and
// minimization are computed on demand without mutating the receiver, so a
// *Spec may be shared freely between goroutines.
package spec

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Event is the name of an external event. Event names are free-form
// non-empty strings; the paper's figures use names such as "acc", "del",
// "-d0" (pass a message into a channel) and "+d0" (remove a message from
// a channel), all of which are legal here.
type Event string

// State identifies a state of a particular Spec. States are dense indices
// in [0, NumStates()); the zero value is only meaningful for the Spec that
// produced it.
type State int

// ExtEdge is one external transition (s, Event, To) ∈ T, stored in the
// adjacency list of s.
type ExtEdge struct {
	Event Event
	To    State
}

// Spec is an immutable finite-state specification. Use a Builder to
// construct one.
type Spec struct {
	name       string
	stateNames []string
	stateIndex map[string]State
	alphabet   []Event // sorted, deduplicated
	alphaSet   map[Event]struct{}
	ext        [][]ExtEdge // T, adjacency per state, sorted by (Event, To)
	intl       [][]State   // λ, adjacency per state, sorted
	init       State

	// Derived data, computed once at build time.
	scc      []int     // λ-SCC id per state, in Tarjan pop order
	sccSink  []bool    // per SCC: no λ edge leaves the SCC
	tau      [][]Event // τ.s per state, sorted
	tauStar  [][]Event // τ*.s per state, sorted; shared by a λ-SCC's members
	numExt   int       // |T|
	numIntl  int       // |λ|
	detExt   bool      // no state has two external edges with the same event
	hasIntl  bool
	reachSet []bool // reachable from init via T ∪ λ
}

// Name returns the specification's name.
func (s *Spec) Name() string { return s.name }

// NumStates returns |S|.
func (s *Spec) NumStates() int { return len(s.stateNames) }

// NumExternalTransitions returns |T|.
func (s *Spec) NumExternalTransitions() int { return s.numExt }

// NumInternalTransitions returns |λ|.
func (s *Spec) NumInternalTransitions() int { return s.numIntl }

// Init returns the initial state s0.
func (s *Spec) Init() State { return s.init }

// StateName returns the name of state st. It panics if st is out of range,
// which always indicates a State from a different Spec.
func (s *Spec) StateName(st State) string { return s.stateNames[st] }

// LookupState resolves a state name to its State index.
func (s *Spec) LookupState(name string) (State, bool) {
	st, ok := s.stateIndex[name]
	return st, ok
}

// Alphabet returns Σ as a sorted slice. The caller must not modify it.
func (s *Spec) Alphabet() []Event { return s.alphabet }

// HasEvent reports whether e ∈ Σ.
func (s *Spec) HasEvent(e Event) bool {
	_, ok := s.alphaSet[e]
	return ok
}

// ExtEdges returns the external transitions leaving st, sorted by
// (Event, To). The caller must not modify the returned slice.
func (s *Spec) ExtEdges(st State) []ExtEdge { return s.ext[st] }

// IntEdges returns the λ-successors of st, sorted. The caller must not
// modify the returned slice.
func (s *Spec) IntEdges(st State) []State { return s.intl[st] }

// Successors returns the external e-successors of st (there may be several
// when the spec is nondeterministic).
func (s *Spec) Successors(st State, e Event) []State {
	var out []State
	for _, ed := range s.ext[st] {
		if ed.Event == e {
			out = append(out, ed.To)
		}
	}
	return out
}

// HasExt reports whether (from, e, to) ∈ T.
func (s *Spec) HasExt(from State, e Event, to State) bool {
	for _, ed := range s.ext[from] {
		if ed.Event == e && ed.To == to {
			return true
		}
	}
	return false
}

// HasInt reports whether (from, to) ∈ λ.
func (s *Spec) HasInt(from, to State) bool {
	for _, t := range s.intl[from] {
		if t == to {
			return true
		}
	}
	return false
}

// DeterministicExternal reports whether no state has two distinct external
// transitions on the same event. Together with NumInternalTransitions()==0
// this means the spec is fully deterministic.
func (s *Spec) DeterministicExternal() bool { return s.detExt }

// Deterministic reports whether the spec has no internal transitions and
// no state has two external transitions on the same event. A deterministic
// spec is trivially in normal form.
func (s *Spec) Deterministic() bool { return s.detExt && !s.hasIntl }

// String returns a compact one-line summary; use Format for a full listing.
func (s *Spec) String() string {
	return fmt.Sprintf("spec %s: %d states, %d events, %d external + %d internal transitions",
		s.name, s.NumStates(), len(s.alphabet), s.numExt, s.numIntl)
}

// Format renders the full transition listing, one transition per line, in a
// stable order. It is intended for debugging and golden tests.
func (s *Spec) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec %s\n", s.name)
	fmt.Fprintf(&b, "init %s\n", s.stateNames[s.init])
	evs := make([]string, len(s.alphabet))
	for i, e := range s.alphabet {
		evs[i] = string(e)
	}
	fmt.Fprintf(&b, "events %s\n", strings.Join(evs, " "))
	for st := range s.stateNames {
		for _, ed := range s.ext[st] {
			fmt.Fprintf(&b, "%s -%s-> %s\n", s.stateNames[st], ed.Event, s.stateNames[ed.To])
		}
		for _, t := range s.intl[st] {
			fmt.Fprintf(&b, "%s --> %s\n", s.stateNames[st], s.stateNames[t])
		}
	}
	return b.String()
}

// sortEdges sorts an external adjacency list into the canonical order.
func sortEdges(edges []ExtEdge) {
	slices.SortFunc(edges, func(x, y ExtEdge) int {
		if c := strings.Compare(string(x.Event), string(y.Event)); c != 0 {
			return c
		}
		return cmp.Compare(x.To, y.To)
	})
}

// sortStates sorts a state slice ascending.
func sortStates(sts []State) {
	slices.Sort(sts)
}

// sortEvents sorts an event slice ascending.
func sortEvents(evs []Event) {
	slices.Sort(evs)
}
