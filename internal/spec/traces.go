package spec

// Trace semantics (paper §3). A trace is a finite sequence of external
// events; A.t holds iff some path from the initial state, interleaving
// internal transitions freely, is labeled t. Trace sets are prefix-closed
// and always contain the empty trace.

import "slices"

// StatesAfter returns the set of states a with s0 ⟼t a: every state
// reachable from the initial state by a path whose external labels spell t
// (including trailing internal transitions). The result is ε-closed and
// sorted; it is empty iff t is not a trace.
func (s *Spec) StatesAfter(t []Event) []State {
	cur := s.CloseSet([]State{s.init})
	for _, e := range t {
		cur = s.StepSet(cur, e)
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// HasTrace reports whether t is a trace of the spec.
func (s *Spec) HasTrace(t []Event) bool { return len(s.StatesAfter(t)) > 0 }

// EnabledAfter returns the union of τ.a over all a with s0 ⟼t a — the
// external events that may occur next after trace t. Nil if t is not a
// trace.
func (s *Spec) EnabledAfter(t []Event) []Event {
	sts := s.StatesAfter(t)
	if sts == nil {
		return nil
	}
	seen := make(map[Event]struct{})
	for _, a := range sts {
		for _, e := range s.tau[a] {
			seen[e] = struct{}{}
		}
	}
	out := make([]Event, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sortEvents(out)
	return out
}

// CloseSet returns the λ*-closure of a set of states: every state
// internally reachable from a member, sorted and deduplicated, in a fresh
// slice. It is the one λ-closure routine of the package.
func (s *Spec) CloseSet(sts []State) []State {
	out := slices.Clone(sts)
	if s.hasIntl {
		seen := make(map[State]bool, len(out))
		for _, st := range out {
			seen[st] = true
		}
		for i := 0; i < len(out); i++ {
			for _, v := range s.intl[out[i]] {
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
	}
	sortStates(out)
	return slices.Compact(out)
}

// StepSet takes a λ*-closed set through one external event and re-closes
// it; nil if e is enabled nowhere in the set.
func (s *Spec) StepSet(sts []State, e Event) []State {
	var nxt []State
	for _, st := range sts {
		for _, ed := range s.ext[st] {
			if ed.Event == e {
				nxt = append(nxt, ed.To)
			}
		}
	}
	if len(nxt) == 0 {
		return nil
	}
	return s.CloseSet(nxt)
}

// Psi returns ψ_A.t for a normal-form spec: the unique state a such that
// every state reachable after t is internally reachable from a. It returns
// ok=false if t is not a trace. Behavior is undefined (but safe) if the
// spec is not in normal form; callers should check IsNormalForm first.
func (s *Spec) Psi(t []Event) (State, bool) {
	a := s.init
	for _, e := range t {
		var ok bool
		a, ok = s.PsiStep(a, e)
		if !ok {
			return 0, false
		}
	}
	return a, true
}

// PsiStep advances ψ by one event: given a = ψ.q it returns ψ.(qe), the
// unique e-target reachable from λ*(a). For a normal-form spec the target
// is unique by condition (iii); if the spec is not in normal form the
// lowest-numbered target is returned. ok is false if e is not enabled
// anywhere in λ*(a).
func (s *Spec) PsiStep(a State, e Event) (State, bool) {
	found := false
	var target State
	for _, u := range s.LambdaClosure(a) {
		for _, ed := range s.ext[u] {
			if ed.Event != e {
				continue
			}
			if !found || ed.To < target {
				target = ed.To
				found = true
			}
		}
	}
	return target, found
}

// TraceTracker follows a trace incrementally: it maintains the ε-closed set
// of states the spec may occupy after the events observed so far, exactly
// the frontier StatesAfter would compute, but advanced one event at a time
// in O(frontier) per step. It is the test oracle of convrt's determinized
// conformance monitors: a monitor must agree with a tracker fed the same
// events on every step.
//
// A TraceTracker is not safe for concurrent use; callers serialize access.
type TraceTracker struct {
	s   *Spec
	cur []State
}

// Track returns a tracker positioned at the empty trace.
func (s *Spec) Track() *TraceTracker {
	return &TraceTracker{s: s, cur: s.CloseSet([]State{s.init})}
}

// Step advances the tracker by one event. It reports whether the extended
// sequence is still a trace of the spec; on false the tracker is left
// unchanged, so the caller can inspect Enabled() for diagnosis.
func (t *TraceTracker) Step(e Event) bool {
	nxt := t.s.StepSet(t.cur, e)
	if len(nxt) == 0 {
		return false
	}
	t.cur = nxt
	return true
}

// Enabled returns the external events that may occur next — the union of
// τ.a over the current state set — sorted.
func (t *TraceTracker) Enabled() []Event {
	seen := make(map[Event]struct{})
	for _, a := range t.cur {
		for _, e := range t.s.tau[a] {
			seen[e] = struct{}{}
		}
	}
	out := make([]Event, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sortEvents(out)
	return out
}

// Reset returns the tracker to the empty trace.
func (t *TraceTracker) Reset() {
	t.cur = t.s.CloseSet([]State{t.s.init})
}

// TracesUpTo enumerates all traces of length ≤ maxLen in shortlex order.
// It is exponential in maxLen and intended for tests and small examples.
func (s *Spec) TracesUpTo(maxLen int) [][]Event {
	type node struct {
		trace []Event
		sts   []State
	}
	var out [][]Event
	frontier := []node{{trace: nil, sts: s.CloseSet([]State{s.init})}}
	out = append(out, []Event{})
	for depth := 0; depth < maxLen; depth++ {
		var next []node
		for _, nd := range frontier {
			for _, e := range s.alphabet {
				sts := s.StepSet(nd.sts, e)
				if len(sts) == 0 {
					continue
				}
				tr := make([]Event, len(nd.trace)+1)
				copy(tr, nd.trace)
				tr[len(nd.trace)] = e
				out = append(out, tr)
				next = append(next, node{trace: tr, sts: sts})
			}
		}
		frontier = next
	}
	return out
}
