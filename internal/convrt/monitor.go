package convrt

import (
	"encoding/binary"
	"fmt"
	"slices"

	"protoquot/internal/spec"
)

// maxMonitorStates caps the determinization of a conformance reference. A
// deterministic reference yields one monitor state per reachable state, so
// the cap only bites on references whose internal moves or nondeterminism
// make the subset construction explode. A variable, not a constant, so the
// tests can drive the cap at a small size.
var maxMonitorStates = 1 << 20

// monitor is a conformance reference determinized into table form: each
// monitor state is one ε-closed set of reference states — exactly the
// frontier spec.TraceTracker would hold after the same trace — and the
// columns are a table's event ids. A session's online safety check is then
// one array load per executed event, and the enabled-set audit an integer
// slice compare.
//
// The construction reads the reference only through ExtEdges and its
// λ-closure routines and the table only through its id→name view (Events),
// never through Compile or the table's transition arrays, so the monitor
// stays an independent check of the code that produced the table. A monitor is
// immutable after newMonitor and shared by every session of a run; the
// initial monitor state is 0.
type monitor struct {
	ref   *spec.Spec
	width int // columns: the table's event ids

	// next[ms*width+ev] is the monitor state after ev, or NoState when the
	// reference does not enable ev. Columns of table events the reference
	// lacks are NoState throughout.
	next []int32

	// enabledEvs[enabledOff[ms]:enabledOff[ms+1]] lists the table event ids
	// the reference enables in ms, ascending; outside[ms] reports whether it
	// also enables an event outside the table alphabet.
	enabledOff []int32
	enabledEvs []int32
	outside    []bool

	// setStates[setOff[ms]:setOff[ms+1]] is the reference state set behind
	// ms, sorted. Only the failure path reads it, to name what the
	// reference allows.
	setOff    []int32
	setStates []spec.State
}

// newMonitor determinizes ref over the given column alphabet (a table's
// Events) by subset construction from the ε-closure of ref's initial state.
// It fails when the construction would exceed maxMonitorStates.
func newMonitor(ref *spec.Spec, events []spec.Event) (*monitor, error) {
	col := make(map[spec.Event]int, len(events))
	for i, e := range events {
		col[e] = i
	}
	m := &monitor{ref: ref, width: len(events), enabledOff: []int32{0}, setOff: []int32{0}}
	index := make(map[string]int32)
	var key []byte
	intern := func(set []spec.State) (int32, error) {
		key = key[:0]
		for _, st := range set {
			key = binary.AppendUvarint(key, uint64(st))
		}
		if id, ok := index[string(key)]; ok {
			return id, nil
		}
		id := int32(m.numStates())
		if int(id) >= maxMonitorStates {
			return NoState, fmt.Errorf("convrt: determinizing reference %q exceeds %d monitor states", ref.Name(), maxMonitorStates)
		}
		index[string(key)] = id
		m.setStates = append(m.setStates, set...)
		m.setOff = append(m.setOff, int32(len(m.setStates)))
		return id, nil
	}
	if _, err := intern(ref.LambdaClosure(ref.Init())); err != nil {
		return nil, err
	}
	// The interned sets are the BFS queue: every state interned is expanded
	// exactly once, in id order.
	targets := make([][]spec.State, len(events))
	for ms := 0; ms < m.numStates(); ms++ {
		outside := false
		for _, u := range m.set(int32(ms)) {
			for _, ed := range ref.ExtEdges(u) {
				c, ok := col[ed.Event]
				if !ok {
					outside = true
					continue
				}
				targets[c] = append(targets[c], ed.To)
			}
		}
		row := len(m.next)
		for range events {
			m.next = append(m.next, NoState)
		}
		for c, ts := range targets {
			if len(ts) == 0 {
				continue
			}
			id, err := intern(ref.CloseSet(ts))
			if err != nil {
				return nil, err
			}
			m.next[row+c] = id
			m.enabledEvs = append(m.enabledEvs, int32(c))
			targets[c] = ts[:0]
		}
		m.enabledOff = append(m.enabledOff, int32(len(m.enabledEvs)))
		m.outside = append(m.outside, outside)
	}
	return m, nil
}

// numStates returns the number of monitor states.
func (m *monitor) numStates() int { return len(m.setOff) - 1 }

// set returns the reference state set behind ms.
func (m *monitor) set(ms int32) []spec.State { return m.setStates[m.setOff[ms]:m.setOff[ms+1]] }

// step returns the monitor state after table event ev, or NoState when the
// reference refuses it. It never allocates.
func (m *monitor) step(ms, ev int32) int32 { return m.next[int(ms)*m.width+int(ev)] }

// enabled returns the table event ids the reference enables in ms,
// ascending. It never allocates; callers must not modify it.
func (m *monitor) enabled(ms int32) []int32 {
	return m.enabledEvs[m.enabledOff[ms]:m.enabledOff[ms+1]]
}

// enabledNames returns every event the reference enables in ms, sorted —
// including events outside the table alphabet. It is what
// spec.TraceTracker.Enabled reports for the same trace, and it allocates:
// the failure path only.
func (m *monitor) enabledNames(ms int32) []spec.Event {
	out := []spec.Event{}
	for _, u := range m.set(ms) {
		out = append(out, m.ref.Tau(u)...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
