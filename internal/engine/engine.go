// Package engine executes closed systems of composed specifications: it
// steps a specification's global state, runs random walks under the
// paper's fairness assumption for internal nondeterminism, detects
// deadlocks and livelocks, and records traces. It is the simulation-based
// counterpart to the exhaustive checks in package sat: the satisfaction
// checker proves properties, the engine demonstrates runs — for examples,
// for statistics (how often does loss force a retransmission?), and as an
// independent sanity check on derived converters.
package engine

import (
	"fmt"
	"math/rand"

	"protoquot/internal/spec"
)

// System is the read-only stepping surface the engine needs: initial
// state, outgoing edges, and names for reporting. Both *spec.Spec and
// *compose.Lazy satisfy it, so large composed environments can be
// simulated straight from the fused index-space composition without ever
// materializing a string-keyed *spec.Spec. ExtEdges and IntEdges must
// return stable orders (the sorted orders both implementations guarantee);
// Enabled and the fairness scheduler inherit reproducibility from them.
type System interface {
	Name() string
	NumStates() int
	Init() spec.State
	Alphabet() []spec.Event
	ExtEdges(st spec.State) []spec.ExtEdge
	IntEdges(st spec.State) []spec.State
	StateName(st spec.State) string
}

// hasInt reports whether (from, to) is an internal transition of s.
func hasInt(s System, from, to spec.State) bool {
	for _, t := range s.IntEdges(from) {
		if t == to {
			return true
		}
	}
	return false
}

// hasExt reports whether (from, e, to) is an external transition of s.
func hasExt(s System, from spec.State, e spec.Event, to spec.State) bool {
	for _, ed := range s.ExtEdges(from) {
		if ed.Event == e && ed.To == to {
			return true
		}
	}
	return false
}

// Move is one enabled step of the system: either an external event or an
// internal transition.
type Move struct {
	// Event is the external event, or "" for an internal move.
	Event spec.Event
	// To is the destination state.
	To spec.State
}

// Internal reports whether the move is an internal transition.
func (m Move) Internal() bool { return m.Event == "" }

// Runner executes one System (usually a composition).
type Runner struct {
	s   System
	cur spec.State
	rng *rand.Rand

	// Fairness bookkeeping: age counts how many times each currently
	// enabled internal move has been passed over; the scheduler must
	// eventually pick old moves, implementing the paper's assumption that
	// a repeatedly enabled internal transition eventually occurs.
	age map[Move]int
}

// New returns a Runner at the system's initial state. The rng may
// be shared only by one Runner.
func New(s System, rng *rand.Rand) *Runner {
	return &Runner{s: s, cur: s.Init(), rng: rng, age: make(map[Move]int)}
}

// State returns the current state.
func (r *Runner) State() spec.State { return r.cur }

// StateName returns the current state's name.
func (r *Runner) StateName() string { return r.s.StateName(r.cur) }

// Enabled returns every enabled move in the current state, internal moves
// first, in a stable order.
func (r *Runner) Enabled() []Move {
	var out []Move
	for _, t := range r.s.IntEdges(r.cur) {
		out = append(out, Move{To: t})
	}
	for _, ed := range r.s.ExtEdges(r.cur) {
		out = append(out, Move{Event: ed.Event, To: ed.To})
	}
	return out
}

// Step applies one move, which must currently be enabled.
func (r *Runner) Step(m Move) error {
	if m.Internal() {
		if !hasInt(r.s, r.cur, m.To) {
			return fmt.Errorf("engine: internal move to %s not enabled in %s",
				r.s.StateName(m.To), r.StateName())
		}
	} else if !hasExt(r.s, r.cur, m.Event, m.To) {
		return fmt.Errorf("engine: move %s to %s not enabled in %s",
			m.Event, r.s.StateName(m.To), r.StateName())
	}
	r.cur = m.To
	return nil
}

// pickFair chooses a move with a fairness bias: every time an internal move
// is passed over its age grows, and the choice is weighted by age, so no
// internal move can be neglected forever (with probability one).
func (r *Runner) pickFair(moves []Move) Move {
	weights := make([]int, len(moves))
	total := 0
	for i, m := range moves {
		w := 1
		if m.Internal() {
			w += r.age[m]
		}
		weights[i] = w
		total += w
	}
	pick := r.rng.Intn(total)
	idx := 0
	for i, w := range weights {
		if pick < w {
			idx = i
			break
		}
		pick -= w
	}
	chosen := moves[idx]
	for _, m := range moves {
		if m.Internal() {
			if m == chosen {
				delete(r.age, m)
			} else {
				r.age[m]++
			}
		}
	}
	return chosen
}

// WalkResult summarizes a random walk.
type WalkResult struct {
	// Trace is the external trace observed.
	Trace []spec.Event
	// Steps counts all moves taken, internal included.
	Steps int
	// InternalSteps counts internal moves.
	InternalSteps int
	// Deadlocked is true if the walk ended with no enabled move.
	Deadlocked bool
	// FinalState names the state where the walk ended.
	FinalState string
	// EventCount tallies external events by name.
	EventCount map[spec.Event]int
}

// Walk runs a fair random walk for at most maxSteps moves (or until
// deadlock) and returns its summary. The Runner continues from its current
// state, so successive walks extend one run.
func (r *Runner) Walk(maxSteps int) WalkResult {
	res := WalkResult{EventCount: make(map[spec.Event]int)}
	for res.Steps < maxSteps {
		moves := r.Enabled()
		if len(moves) == 0 {
			res.Deadlocked = true
			break
		}
		m := r.pickFair(moves)
		_ = r.Step(m)
		res.Steps++
		if m.Internal() {
			res.InternalSteps++
		} else {
			res.Trace = append(res.Trace, m.Event)
			res.EventCount[m.Event]++
		}
	}
	res.FinalState = r.StateName()
	return res
}

// Reset returns the runner to the initial state and clears fairness state.
func (r *Runner) Reset() {
	r.cur = r.s.Init()
	r.age = make(map[Move]int)
}

// FindDeadlock searches the reachable state space for a state with no
// outgoing moves and returns a shortest witness trace to it, or ok=false
// if the system is deadlock-free. Unlike sat.Progress this ignores any
// service; it answers the bare question "can the closed system get stuck?"
func FindDeadlock(s System) (trace []spec.Event, state string, ok bool) {
	type nd struct {
		st     spec.State
		parent int
		ev     spec.Event
		silent bool
	}
	var nodes []nd
	seen := map[spec.State]bool{s.Init(): true}
	nodes = append(nodes, nd{st: s.Init(), parent: -1, silent: true})
	for i := 0; i < len(nodes); i++ {
		cur := nodes[i]
		ext := s.ExtEdges(cur.st)
		intl := s.IntEdges(cur.st)
		if len(ext) == 0 && len(intl) == 0 {
			var rev []spec.Event
			for j := i; j >= 0; j = nodes[j].parent {
				if !nodes[j].silent {
					rev = append(rev, nodes[j].ev)
				}
			}
			trace = make([]spec.Event, len(rev))
			for k := range rev {
				trace[k] = rev[len(rev)-1-k]
			}
			return trace, s.StateName(cur.st), true
		}
		for _, t := range intl {
			if !seen[t] {
				seen[t] = true
				nodes = append(nodes, nd{st: t, parent: i, silent: true})
			}
		}
		for _, ed := range ext {
			if !seen[ed.To] {
				seen[ed.To] = true
				nodes = append(nodes, nd{st: ed.To, parent: i, ev: ed.Event})
			}
		}
	}
	return nil, "", false
}

// FindLivelock searches for a reachable divergence: a sink set (terminal
// λ-SCC) that enables no external event. Under fairness such a set traps
// the system forever with no observable progress.
func FindLivelock(s *spec.Spec) (state string, ok bool) {
	for _, st := range s.Reachable() {
		if s.Sink(st) && len(s.TauStar(st)) == 0 &&
			(len(s.IntEdges(st)) > 0 || len(s.ExtEdges(st)) == 0) {
			// Exclude plain deadlocks (no internal moves at all) — those
			// are FindDeadlock's domain — unless the state truly cycles.
			if len(s.IntEdges(st)) > 0 {
				return s.StateName(st), true
			}
		}
	}
	return "", false
}
