// Package convrt is the converter execution runtime: it compiles a derived
// converter specification into an allocation-free integer-indexed form —
// dense event interning, a flat (state × event) transition table, and a CSR
// enabled-set index — and executes it two ways, both with seeded fault
// injection (internal/runtime's fault models) and online conformance
// checking against the specification the table was compiled from:
//
//   - thousands of concurrent sessions, each driving the converter over a
//     bounded-FIFO wire (Runner, session.go);
//   - a closed conversion system, the converter running between the
//     protocol entities it was derived for, with the service checked end
//     to end (RunSystem, system.go).
//
// The repo's other subsystems derive converters (internal/core), serve them
// (internal/server), and render them (internal/codegen); convrt is what
// *operates* them: the interpreter a deployment would actually run on the
// data path, where a string switch per message and a map lookup per enabled
// set are not acceptable. Compile is a pure function of the specification,
// so a compiled table is itself a cacheable artifact (Encode/Decode give it
// a stable wire form, served by quotd beside the .spec/.dot/.go
// renderings).
package convrt

import (
	"fmt"
	"sort"

	"protoquot/internal/spec"
)

// NoEvent and NoState are the sentinel ids returned by failed lookups.
const (
	NoEvent int32 = -1
	NoState int32 = -1
)

// Table is a compiled converter: the same machine a *spec.Spec describes,
// re-expressed so that Step and Enabled touch only flat int32 arrays.
// Events are interned as dense ids in alphabet order, states keep the
// specification's dense indices, and the transition function is a single
// row-major (state × event) array with NoState marking "not enabled".
//
// A Table is immutable after Compile/Decode and safe for any number of
// concurrent readers; sessions share one table and carry only their own
// int32 cursor. The zero-allocation contract: Step, Enabled, EventID,
// Degree, and the scalar accessors never allocate (pinned by
// TestTableStepDoesNotAllocate).
type Table struct {
	name       string
	init       int32
	events     []spec.Event // id → event, sorted ascending (the interning order)
	eventIDs   map[spec.Event]int32
	stateNames []string

	// next is the row-major transition table: next[st*numEvents+ev] is the
	// successor state, or NoState. numEvents is kept as int32 to make the
	// row offset arithmetic explicit.
	next      []int32
	numEvents int32

	// enabled is a CSR index over next: enabledEvs[enabledOff[st]:
	// enabledOff[st+1]] lists the event ids enabled in st, ascending. It is
	// redundant with next but turns "what can happen here" from an O(|Σ|)
	// scan into a slice header.
	enabledOff []int32
	enabledEvs []int32
}

// Compile builds the table form of s. The preconditions are those of
// executable converters (and of internal/codegen): no internal transitions
// and at most one successor per (state, event). Quotient outputs satisfy
// both; resolve a nondeterministic spec first (core.Prune, Normalize, or
// Minimize).
func Compile(s *spec.Spec) (*Table, error) {
	if s.NumInternalTransitions() > 0 {
		return nil, fmt.Errorf("convrt: %s has internal transitions; compile a converter, not a raw spec", s.Name())
	}
	if !s.DeterministicExternal() {
		return nil, fmt.Errorf("convrt: %s is nondeterministic; prune or normalize it first", s.Name())
	}
	alpha := s.Alphabet()
	t := &Table{
		name:       s.Name(),
		init:       int32(s.Init()),
		events:     make([]spec.Event, len(alpha)),
		eventIDs:   make(map[spec.Event]int32, len(alpha)),
		stateNames: make([]string, s.NumStates()),
		numEvents:  int32(len(alpha)),
	}
	copy(t.events, alpha)
	for i, e := range t.events {
		t.eventIDs[e] = int32(i)
	}
	n := s.NumStates()
	t.next = make([]int32, n*len(alpha))
	for i := range t.next {
		t.next[i] = NoState
	}
	t.enabledOff = make([]int32, n+1)
	for st := 0; st < n; st++ {
		t.stateNames[st] = s.StateName(spec.State(st))
		row := t.next[st*len(alpha) : (st+1)*len(alpha)]
		for _, ed := range s.ExtEdges(spec.State(st)) {
			ev := t.eventIDs[ed.Event]
			row[ev] = int32(ed.To)
			t.enabledEvs = append(t.enabledEvs, ev)
		}
		// ExtEdges is sorted by (Event, To) and events intern in alphabet
		// order, so the per-state id run is already ascending.
		t.enabledOff[st+1] = int32(len(t.enabledEvs))
	}
	return t, nil
}

// Name returns the source specification's name.
func (t *Table) Name() string { return t.name }

// NumStates returns the number of states.
func (t *Table) NumStates() int { return len(t.stateNames) }

// NumEvents returns the interned alphabet size.
func (t *Table) NumEvents() int { return int(t.numEvents) }

// Init returns the initial state.
func (t *Table) Init() int32 { return t.init }

// EventID interns an event name, returning NoEvent when it is not in the
// alphabet.
func (t *Table) EventID(e spec.Event) int32 {
	if id, ok := t.eventIDs[e]; ok {
		return id
	}
	return NoEvent
}

// EventName returns the event for an interned id.
func (t *Table) EventName(id int32) spec.Event { return t.events[id] }

// Events returns the interned alphabet in id order. Callers must not modify
// the returned slice.
func (t *Table) Events() []spec.Event { return t.events }

// StateName returns the name of state st.
func (t *Table) StateName(st int32) string { return t.stateNames[st] }

// Step returns the successor of st under event ev, or (NoState, false) when
// ev is not enabled. It never allocates.
func (t *Table) Step(st, ev int32) (int32, bool) {
	nxt := t.next[st*t.numEvents+ev]
	return nxt, nxt != NoState
}

// Enabled returns the event ids enabled in st, ascending — a view into the
// table's CSR storage. It never allocates; callers must not modify it.
func (t *Table) Enabled(st int32) []int32 {
	return t.enabledEvs[t.enabledOff[st]:t.enabledOff[st+1]]
}

// Degree returns the number of events enabled in st without materializing
// the slice header.
func (t *Table) Degree(st int32) int {
	return int(t.enabledOff[st+1] - t.enabledOff[st])
}

// NumTransitions returns the total transition count.
func (t *Table) NumTransitions() int { return len(t.enabledEvs) }

// Spec reconstructs a *spec.Spec equivalent to the compiled machine — the
// inverse of Compile up to canonical form. It is what lets a consumer of a
// table artifact (cmd/convrt running from a .table file) recover a
// reference specification for conformance tracking without shipping the
// .spec beside it.
func (t *Table) Spec() (*spec.Spec, error) {
	b := spec.NewBuilder(t.name)
	for _, name := range t.stateNames {
		b.State(name)
	}
	b.Init(t.stateNames[t.init])
	for st := range t.stateNames {
		for _, ev := range t.Enabled(int32(st)) {
			nxt, _ := t.Step(int32(st), ev)
			b.Ext(t.stateNames[st], t.events[ev], t.stateNames[nxt])
		}
	}
	return b.Build()
}

// validate checks the structural invariants a decoded table must satisfy
// before any of the unchecked-index accessors may be used on it.
func (t *Table) validate() error {
	n := len(t.stateNames)
	if n == 0 {
		return fmt.Errorf("convrt: table has no states")
	}
	if t.init < 0 || int(t.init) >= n {
		return fmt.Errorf("convrt: init state %d out of range [0,%d)", t.init, n)
	}
	if int(t.numEvents) != len(t.events) {
		return fmt.Errorf("convrt: event count %d does not match alphabet size %d", t.numEvents, len(t.events))
	}
	if len(t.next) != n*len(t.events) {
		return fmt.Errorf("convrt: transition table has %d cells, want %d", len(t.next), n*len(t.events))
	}
	if !sort.SliceIsSorted(t.events, func(i, j int) bool { return t.events[i] < t.events[j] }) {
		return fmt.Errorf("convrt: alphabet not sorted")
	}
	for i, e := range t.events {
		if e == "" {
			return fmt.Errorf("convrt: empty event name at id %d", i)
		}
		if i > 0 && t.events[i-1] == e {
			return fmt.Errorf("convrt: duplicate event %q", e)
		}
	}
	seen := make(map[string]bool, n)
	for i, name := range t.stateNames {
		if name == "" {
			return fmt.Errorf("convrt: empty state name at index %d", i)
		}
		if seen[name] {
			return fmt.Errorf("convrt: duplicate state name %q", name)
		}
		seen[name] = true
	}
	for i, nxt := range t.next {
		if nxt != NoState && (nxt < 0 || int(nxt) >= n) {
			return fmt.Errorf("convrt: cell %d: successor %d out of range", i, nxt)
		}
	}
	return nil
}

// finish derives the interning map and the CSR enabled index from the
// decoded core fields (events, stateNames, init, next).
func (t *Table) finish() {
	t.eventIDs = make(map[spec.Event]int32, len(t.events))
	for i, e := range t.events {
		t.eventIDs[e] = int32(i)
	}
	n := len(t.stateNames)
	t.enabledOff = make([]int32, n+1)
	t.enabledEvs = t.enabledEvs[:0]
	for st := 0; st < n; st++ {
		row := t.next[st*int(t.numEvents) : (st+1)*int(t.numEvents)]
		for ev, nxt := range row {
			if nxt != NoState {
				t.enabledEvs = append(t.enabledEvs, int32(ev))
			}
		}
		t.enabledOff[st+1] = int32(len(t.enabledEvs))
	}
}
