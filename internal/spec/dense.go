package spec

import (
	"fmt"
)

// Dense is the raw material for FromDense: a specification already laid out
// over dense state indices. It exists for producers that compute the state
// space themselves (the fused composition in internal/compose), for whom
// routing every state and edge through the Builder's per-edge hash maps is
// pure overhead.
type Dense struct {
	// Name is the specification name.
	Name string
	// StateNames holds one name per state; index is the State id.
	StateNames []string
	// Init is the initial state index.
	Init State
	// Alphabet is Σ. It need not be sorted; it must not contain duplicates
	// or events absent from it referenced by Ext.
	Alphabet []Event
	// Ext is the external adjacency per state. Slices need not be sorted
	// or deduplicated; FromDense canonicalizes. Nil entries are fine.
	Ext [][]ExtEdge
	// Int is the internal adjacency per state, same conventions as Ext.
	Int [][]State
}

// FromDense validates, canonicalizes, and freezes a Dense specification,
// running the same derived analyses (λ-SCCs and sinks, τ/τ* sets,
// reachability) as Builder.Build. The input slices are copied; the caller
// may reuse them.
func FromDense(d Dense) (*Spec, error) {
	n := len(d.StateNames)
	if n == 0 {
		return nil, fmt.Errorf("spec %s: no states defined", d.Name)
	}
	if d.Init < 0 || int(d.Init) >= n {
		return nil, fmt.Errorf("spec %s: init state %d out of range [0,%d)", d.Name, d.Init, n)
	}
	if len(d.Ext) > n || len(d.Int) > n {
		return nil, fmt.Errorf("spec %s: adjacency longer than state list", d.Name)
	}
	s := &Spec{
		name:       d.Name,
		stateNames: append([]string(nil), d.StateNames...),
		stateIndex: make(map[string]State, n),
		alphabet:   append([]Event(nil), d.Alphabet...),
		alphaSet:   make(map[Event]struct{}, len(d.Alphabet)),
		ext:        make([][]ExtEdge, n),
		intl:       make([][]State, n),
		init:       d.Init,
	}
	for i, name := range s.stateNames {
		if name == "" {
			return nil, fmt.Errorf("spec %s: state %d has an empty name", d.Name, i)
		}
		if _, dup := s.stateIndex[name]; dup {
			return nil, fmt.Errorf("spec %s: duplicate state name %q", d.Name, name)
		}
		s.stateIndex[name] = State(i)
	}
	for _, e := range s.alphabet {
		if e == "" {
			return nil, fmt.Errorf("spec %s: empty event name in alphabet", d.Name)
		}
		if _, dup := s.alphaSet[e]; dup {
			return nil, fmt.Errorf("spec %s: duplicate event %q in alphabet", d.Name, e)
		}
		s.alphaSet[e] = struct{}{}
	}
	sortEvents(s.alphabet)
	// All states' adjacency goes into one backing array per kind: each
	// state's edges are appended, sorted and deduplicated in place, and the
	// next state's overwrite what deduplication gave back.
	nExt, nInt := 0, 0
	for _, edges := range d.Ext {
		nExt += len(edges)
	}
	for _, tos := range d.Int {
		nInt += len(tos)
	}
	extAll := make([]ExtEdge, 0, nExt)
	for st, edges := range d.Ext {
		if len(edges) == 0 {
			continue
		}
		start := len(extAll)
		extAll = append(extAll, edges...)
		out := extAll[start:]
		sortEdges(out)
		out = dedupeExt(out)
		for _, ed := range out {
			if ed.To < 0 || int(ed.To) >= n {
				return nil, fmt.Errorf("spec %s: edge target %d out of range", d.Name, ed.To)
			}
			if _, ok := s.alphaSet[ed.Event]; !ok {
				return nil, fmt.Errorf("spec %s: edge event %q not in alphabet", d.Name, ed.Event)
			}
		}
		extAll = extAll[:start+len(out)]
		s.ext[st] = out[:len(out):len(out)]
		s.numExt += len(out)
	}
	intAll := make([]State, 0, nInt)
	for st, tos := range d.Int {
		if len(tos) == 0 {
			continue
		}
		start := len(intAll)
		intAll = append(intAll, tos...)
		out := intAll[start:]
		sortStates(out)
		out = dedupeStates(out)
		for _, t := range out {
			if t < 0 || int(t) >= n {
				return nil, fmt.Errorf("spec %s: internal edge target %d out of range", d.Name, t)
			}
		}
		intAll = intAll[:start+len(out)]
		s.intl[st] = out[:len(out):len(out)]
		s.numIntl += len(out)
	}
	s.finalize()
	return s, nil
}

// dedupeExt removes adjacent duplicates from a sorted edge list, in place.
func dedupeExt(edges []ExtEdge) []ExtEdge {
	out := edges[:1]
	for _, ed := range edges[1:] {
		if ed != out[len(out)-1] {
			out = append(out, ed)
		}
	}
	return out
}

// dedupeStates removes adjacent duplicates from a sorted state list, in place.
func dedupeStates(sts []State) []State {
	out := sts[:1]
	for _, t := range sts[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}
