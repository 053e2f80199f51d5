package spec

// This file computes the derived structures that the quotient algorithm and
// the satisfaction checker consume:
//
//   sink sets — λ-SCCs with no escaping internal transition (paper §3),
//   τ.s       — external events enabled in s,
//   τ*.s      — external events enabled in any state internally reachable
//               from s,
//   reachability from the initial state.
//
// All of it is computed once, at Build time, because Specs are immutable.
// Sinks and τ* are properties of a λ-SCC, so they are stored once per SCC
// and shared by its members. The λ*-closure of a state is not stored: it is
// computed on demand by CloseSet.

import "slices"

// finalize populates the derived fields. Called exactly once by Build.
func (s *Spec) finalize() {
	n := s.NumStates()

	// τ.s is the events of s's sorted adjacency with repeats dropped; every
	// state's τ shares one backing array. A repeated event is two
	// transitions on one event, so the spec is externally nondeterministic.
	s.tau = make([][]Event, n)
	s.detExt = true
	distinct := 0
	for _, edges := range s.ext {
		for i := range edges {
			if i > 0 && edges[i].Event == edges[i-1].Event {
				s.detExt = false
			} else {
				distinct++
			}
		}
	}
	taus := make([]Event, 0, distinct)
	for st, edges := range s.ext {
		start := len(taus)
		for i, ed := range edges {
			if i == 0 || ed.Event != edges[i-1].Event {
				taus = append(taus, ed.Event)
			}
		}
		s.tau[st] = taus[start:len(taus):len(taus)]
	}
	s.hasIntl = s.numIntl > 0

	// λ-SCCs via iterative Tarjan. Tarjan pops an SCC only after every SCC
	// it reaches internally, so one pass over the pop order gives each SCC
	// its sink flag and its τ*: the members' τ plus the successor SCCs' τ*.
	// All members share the result; a singleton without a λ edge keeps
	// τ* = τ.
	s.scc = make([]int, n)
	order := s.computeSCCs()
	s.sccSink = make([]bool, s.scc[order[n-1]]+1)
	s.tauStar = make([][]Event, n)
	var evs []Event
	for i := 0; i < n; {
		id := s.scc[order[i]]
		j := i + 1
		for j < n && s.scc[order[j]] == id {
			j++
		}
		members := order[i:j]
		i = j
		if len(members) == 1 && len(s.intl[members[0]]) == 0 {
			s.sccSink[id] = true
			s.tauStar[members[0]] = s.tau[members[0]]
			continue
		}
		sink := true
		evs = evs[:0]
		for _, u := range members {
			evs = append(evs, s.tau[u]...)
			for _, v := range s.intl[u] {
				if s.scc[v] != id {
					sink = false
					evs = append(evs, s.tauStar[v]...)
				}
			}
		}
		s.sccSink[id] = sink
		sortEvents(evs)
		star := slices.Clone(slices.Compact(evs))
		for _, u := range members {
			s.tauStar[u] = star
		}
	}

	// Reachability from init via T ∪ λ.
	s.reachSet = make([]bool, n)
	stack := []State{s.init}
	s.reachSet[s.init] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ed := range s.ext[u] {
			if !s.reachSet[ed.To] {
				s.reachSet[ed.To] = true
				stack = append(stack, ed.To)
			}
		}
		for _, v := range s.intl[u] {
			if !s.reachSet[v] {
				s.reachSet[v] = true
				stack = append(stack, v)
			}
		}
	}
}

// computeSCCs runs an iterative Tarjan SCC over the λ-graph, numbering the
// SCCs in s.scc in the order it pops them. It returns every state in pop
// order, so each SCC's members are contiguous and come after the members of
// every SCC they reach internally.
func (s *Spec) computeSCCs() []State {
	n := s.NumStates()
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []State
	order := make([]State, 0, n)
	next := 0
	sccID := 0

	type frame struct {
		v  State
		ei int // next λ-edge index to explore
	}
	var callStack []frame

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		callStack = append(callStack[:0], frame{v: State(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, State(root))
		onStack[root] = true

		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			v := f.v
			if f.ei < len(s.intl[v]) {
				w := s.intl[v][f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// All edges of v explored: pop.
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := callStack[len(callStack)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					s.scc[w] = sccID
					order = append(order, w)
					if w == v {
						break
					}
				}
				sccID++
			}
		}
	}
	return order
}

// LambdaClosure returns all states reachable from st via zero or more
// internal transitions (s λ* s'), sorted ascending, in a fresh slice.
func (s *Spec) LambdaClosure(st State) []State { return s.CloseSet([]State{st}) }

// CanReachInternally reports st λ* to.
func (s *Spec) CanReachInternally(st, to State) bool {
	_, ok := slices.BinarySearch(s.LambdaClosure(st), to)
	return ok
}

// Sink reports whether st belongs to a sink set: every state internally
// reachable from st can internally reach st back (paper §3). Equivalently,
// st's λ-SCC has no internal transition leaving it.
func (s *Spec) Sink(st State) bool { return s.sccSink[s.scc[st]] }

// SinkSet returns the members of st's sink set (its λ-SCC) if Sink(st),
// and nil otherwise.
func (s *Spec) SinkSet(st State) []State {
	if !s.Sink(st) {
		return nil
	}
	var out []State
	for u := 0; u < s.NumStates(); u++ {
		if s.scc[u] == s.scc[st] {
			out = append(out, State(u))
		}
	}
	return out
}

// Tau returns τ.s — the external events enabled in st — sorted. The caller
// must not modify the returned slice.
func (s *Spec) Tau(st State) []Event { return s.tau[st] }

// TauStar returns τ*.s — the external events enabled in any state
// internally reachable from st — sorted. The caller must not modify the
// returned slice.
func (s *Spec) TauStar(st State) []Event { return s.tauStar[st] }

// Reachable returns all states reachable from the initial state via
// external or internal transitions, sorted ascending.
func (s *Spec) Reachable() []State {
	var out []State
	for st, ok := range s.reachSet {
		if ok {
			out = append(out, State(st))
		}
	}
	return out
}

// IsReachable reports whether st is reachable from the initial state.
func (s *Spec) IsReachable(st State) bool { return s.reachSet[st] }

// Trim returns a copy of the spec restricted to reachable states. The
// alphabet is preserved even if some events no longer label any transition
// (the interface of a component is part of its identity). State names are
// preserved.
func (s *Spec) Trim() *Spec {
	b := NewBuilder(s.name)
	for _, e := range s.alphabet {
		b.Event(e)
	}
	b.Init(s.stateNames[s.init])
	for st := 0; st < s.NumStates(); st++ {
		if !s.reachSet[st] {
			continue
		}
		b.State(s.stateNames[st])
		for _, ed := range s.ext[st] {
			if s.reachSet[ed.To] {
				b.Ext(s.stateNames[st], ed.Event, s.stateNames[ed.To])
			}
		}
		for _, t := range s.intl[st] {
			if s.reachSet[t] {
				b.Int(s.stateNames[st], s.stateNames[t])
			}
		}
	}
	return b.MustBuild()
}

// subsetOf reports a ⊆ b for sorted event slices.
func subsetOf(a, b []Event) bool {
	i := 0
	for _, e := range a {
		for i < len(b) && b[i] < e {
			i++
		}
		if i >= len(b) || b[i] != e {
			return false
		}
	}
	return true
}

// EventsSubset reports whether every event of a (sorted) appears in b
// (sorted). Exported for use by the satisfaction and quotient packages.
func EventsSubset(a, b []Event) bool { return subsetOf(a, b) }
