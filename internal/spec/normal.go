package spec

import (
	"fmt"
	"sort"
	"strings"
)

// Normal form (paper §3). A specification is in normal form iff:
//
//	(i)   no state has both internal and external transitions leaving it;
//	(ii)  the internal relation is acyclic (s λ* s' ∧ s' λ* s ⇒ s = s');
//	(iii) for any s, if two states internally reachable from s both enable
//	      event e, their e-targets coincide.
//
// Normal form "focuses" nondeterminism so that after any trace t there is a
// unique state ψ.t from which every post-t state is internally reachable.
// The quotient algorithm requires its service specification A in normal
// form.

// NotNormalFormError describes the first normal-form violation found.
type NotNormalFormError struct {
	Spec   string
	Reason string
}

func (e *NotNormalFormError) Error() string {
	return fmt.Sprintf("spec %s is not in normal form: %s", e.Spec, e.Reason)
}

// IsNormalForm checks conditions (i)–(iii) and returns nil if the spec is
// in normal form, or a *NotNormalFormError describing the first violation.
func (s *Spec) IsNormalForm() error {
	// (i) mixed states.
	for st := 0; st < s.NumStates(); st++ {
		if len(s.ext[st]) > 0 && len(s.intl[st]) > 0 {
			return &NotNormalFormError{s.name, fmt.Sprintf(
				"state %s has both internal and external transitions", s.stateNames[st])}
		}
	}
	// (ii) λ acyclic: every λ-SCC must be a singleton without a λ self-loop.
	for st := 0; st < s.NumStates(); st++ {
		for _, t := range s.intl[st] {
			if t == State(st) {
				return &NotNormalFormError{s.name, fmt.Sprintf(
					"internal self-loop on state %s", s.stateNames[st])}
			}
			if s.scc[t] == s.scc[st] {
				return &NotNormalFormError{s.name, fmt.Sprintf(
					"internal cycle through states %s and %s", s.stateNames[st], s.stateNames[t])}
			}
		}
	}
	// (iii) focused nondeterminism.
	for st := 0; st < s.NumStates(); st++ {
		targets := make(map[Event]State)
		for _, u := range s.LambdaClosure(State(st)) {
			for _, ed := range s.ext[u] {
				if prev, ok := targets[ed.Event]; ok && prev != ed.To {
					return &NotNormalFormError{s.name, fmt.Sprintf(
						"event %s from states internally reachable from %s leads to both %s and %s",
						ed.Event, s.stateNames[st], s.stateNames[prev], s.stateNames[ed.To])}
				} else if !ok {
					targets[ed.Event] = ed.To
				}
			}
		}
	}
	return nil
}

// Normalize returns a trace-equivalent deterministic specification (no
// internal transitions, at most one e-successor per state), built by subset
// construction. A deterministic spec is trivially in normal form.
//
// Determinization preserves the trace set exactly. For progress semantics
// it is a sound strengthening: after any trace, the deterministic spec has
// a single acceptance set containing every safety-allowed next event,
// whereas the original may nondeterministically permit smaller acceptance
// sets. A converter derived against Normalize(A) therefore also satisfies
// A, but a converter may exist for A and not for Normalize(A) when A's
// nondeterminism is essential. For deterministic services — including the
// paper's Figure 11 service — Normalize is the identity up to state names.
func (s *Spec) Normalize() *Spec {
	type key = string
	name := s.name
	if err := s.IsNormalForm(); err != nil || s.hasIntl || !s.detExt {
		name = s.name + ".det"
	}
	b := NewBuilder(name)
	for _, e := range s.alphabet {
		b.Event(e)
	}

	setName := func(sts []State) string {
		parts := make([]string, len(sts))
		for i, st := range sts {
			parts[i] = s.stateNames[st]
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	keyOf := func(sts []State) key {
		parts := make([]string, len(sts))
		for i, st := range sts {
			parts[i] = fmt.Sprint(int(st))
		}
		return strings.Join(parts, ",")
	}

	init := s.CloseSet([]State{s.init})
	b.Init(setName(init))
	seen := map[key][]State{keyOf(init): init}
	work := [][]State{init}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		curName := setName(cur)
		// Deterministic transition function: union of e-successors, closed.
		evs := make(map[Event]struct{})
		for _, st := range cur {
			for _, e := range s.tau[st] {
				evs[e] = struct{}{}
			}
		}
		sorted := make([]Event, 0, len(evs))
		for e := range evs {
			sorted = append(sorted, e)
		}
		sortEvents(sorted)
		for _, e := range sorted {
			nxt := s.StepSet(cur, e)
			k := keyOf(nxt)
			if _, ok := seen[k]; !ok {
				seen[k] = nxt
				work = append(work, nxt)
			}
			b.Ext(curName, e, setName(nxt))
		}
	}
	return b.MustBuild()
}

// AcceptanceSets returns the distinct acceptance sets reachable after the
// states internally reachable from st: {τ*.a' : st λ* a' ∧ sink.a'}. For a
// normal-form spec these are the event sets the service may stabilize on;
// an implementation must cover at least one of them to satisfy progress.
// The result is sorted lexicographically and deduplicated.
func (s *Spec) AcceptanceSets(st State) [][]Event {
	seen := make(map[string][]Event)
	for _, u := range s.LambdaClosure(st) {
		if !s.Sink(u) {
			continue
		}
		ts := s.tauStar[u]
		parts := make([]string, len(ts))
		for i, e := range ts {
			parts[i] = string(e)
		}
		seen[strings.Join(parts, "\x00")] = ts
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]Event, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}
