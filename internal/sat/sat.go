// Package sat implements the satisfaction relation of Calvert & Lam
// (SIGCOMM 1989, §3): "B satisfies A" iff B satisfies A with respect to
// both safety and progress.
//
// Safety: every trace of B is a trace of A (B and A must have the same
// interface). Checked by an on-the-fly product of B against the subset
// construction of A; a violation yields a shortest counterexample trace.
//
// Progress: any environment guaranteed not to deadlock with A is certain
// not to deadlock with B. Formally, for every trace t and state b with
// s0 ⟼t b, prog.(ψ_A.t).b must hold, where
//
//	prog.a.b ≡ ∃a' : a λ* a' ∧ sink.a' ∧ τ*.a' ⊆ τ*.b.
//
// Progress checking requires A in normal form (so ψ_A.t is well defined)
// and assumes nondeterminism in B is fair and in A is not — the paper's
// standing assumptions.
package sat

import (
	"fmt"
	"strings"

	"protoquot/internal/spec"
)

// Violation describes why B does not satisfy A.
type Violation struct {
	// Kind is "safety" or "progress".
	Kind string
	// Trace is a witness trace of B: for safety, a trace of B that is not
	// a trace of A; for progress, a trace after which B can be in a state
	// whose ready set covers no acceptance set A permits.
	Trace []spec.Event
	// BState names the offending state of B.
	BState string
	// Detail is a human-readable explanation.
	Detail string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("%s violation after trace [%s] at state %s: %s",
		v.Kind, FormatTrace(v.Trace), v.BState, v.Detail)
}

// Phase returns the property that was violated ("safety" or "progress").
// Together with Witness it makes Violation implement the shared
// protoquot.Diagnostic interface alongside core.NoQuotientError.
func (v *Violation) Phase() string { return v.Kind }

// Witness returns the counterexample trace (see Trace).
func (v *Violation) Witness() []spec.Event { return v.Trace }

// FormatTrace renders a trace as space-separated event names.
func FormatTrace(t []spec.Event) string {
	parts := make([]string, len(t))
	for i, e := range t {
		parts[i] = string(e)
	}
	return strings.Join(parts, " ")
}

// searchNode is one entry of the BFS forests used by Safety and Progress;
// parent/event links allow counterexample reconstruction.
type searchNode struct {
	parent int
	event  spec.Event
	silent bool // reached by an internal move (event is meaningless)
}

func rebuildTrace(nodes []searchNode, i int) []spec.Event {
	var rev []spec.Event
	for i >= 0 {
		if !nodes[i].silent {
			rev = append(rev, nodes[i].event)
		}
		i = nodes[i].parent
	}
	out := make([]spec.Event, len(rev))
	for j := range rev {
		out[j] = rev[len(rev)-1-j]
	}
	return out
}

// SameInterface reports whether B and A have identical alphabets, the
// precondition for satisfaction.
func SameInterface(b, a *spec.Spec) bool {
	ba, aa := b.Alphabet(), a.Alphabet()
	if len(ba) != len(aa) {
		return false
	}
	for i := range ba {
		if ba[i] != aa[i] {
			return false
		}
	}
	return true
}

// Safety checks "B satisfies A with respect to safety": every trace of B
// is a trace of A. It returns nil on success or a *Violation carrying a
// counterexample trace. It is an ordinary error (not a Violation) if the
// interfaces differ.
func Safety(b, a *spec.Spec) error {
	if !SameInterface(b, a) {
		return fmt.Errorf("sat: interfaces differ: B has %v, A has %v", b.Alphabet(), a.Alphabet())
	}
	type cfg struct {
		b  spec.State
		as string // canonical key of the A-subset
	}
	subsets := map[string][]spec.State{}
	aInit := a.CloseSet([]spec.State{a.Init()})
	ak := stateSetKey(aInit)
	subsets[ak] = aInit

	var nodes []searchNode
	var cfgs []cfg
	seen := map[cfg]bool{}
	push := func(c cfg, parent int, e spec.Event, silent bool) {
		if seen[c] {
			return
		}
		seen[c] = true
		cfgs = append(cfgs, c)
		nodes = append(nodes, searchNode{parent: parent, event: e, silent: silent})
	}
	push(cfg{b.Init(), ak}, -1, "", true)
	for i := 0; i < len(cfgs); i++ {
		c := cfgs[i]
		as := subsets[c.as]
		for _, t := range b.IntEdges(c.b) {
			push(cfg{t, c.as}, i, "", true)
		}
		for _, ed := range b.ExtEdges(c.b) {
			nxt := a.StepSet(as, ed.Event)
			if len(nxt) == 0 {
				return &Violation{
					Kind:   "safety",
					Trace:  append(rebuildTrace(nodes, i), ed.Event),
					BState: b.StateName(c.b),
					Detail: fmt.Sprintf("B enables %q which A does not allow", ed.Event),
				}
			}
			k := stateSetKey(nxt)
			if _, ok := subsets[k]; !ok {
				subsets[k] = nxt
			}
			push(cfg{ed.To, k}, i, ed.Event, false)
		}
	}
	return nil
}

// Progress checks "B satisfies A with respect to progress". A must be in
// normal form and B must satisfy A with respect to safety; both are
// verified first. Returns nil, a *Violation, or an ordinary error for
// precondition failures.
func Progress(b, a *spec.Spec) error {
	if err := a.IsNormalForm(); err != nil {
		return fmt.Errorf("sat: %w", err)
	}
	if err := Safety(b, a); err != nil {
		return err
	}
	return progressWalk(b, a)
}

// progressWalk is the progress search proper: a walk over (b, ψ_A.t)
// configurations checking prog at each. A must be in normal form and B must
// satisfy A with respect to safety.
func progressWalk(b, a *spec.Spec) error {
	type cfg struct {
		b spec.State
		a spec.State // ψ_A.t for the trace reaching this configuration
	}
	var nodes []searchNode
	var cfgs []cfg
	seen := map[cfg]bool{}
	push := func(c cfg, parent int, e spec.Event, silent bool) {
		if seen[c] {
			return
		}
		seen[c] = true
		cfgs = append(cfgs, c)
		nodes = append(nodes, searchNode{parent: parent, event: e, silent: silent})
	}
	push(cfg{b.Init(), a.Init()}, -1, "", true)
	for i := 0; i < len(cfgs); i++ {
		c := cfgs[i]
		if !Prog(a, c.a, b.TauStar(c.b)) {
			return &Violation{
				Kind:   "progress",
				Trace:  rebuildTrace(nodes, i),
				BState: b.StateName(c.b),
				Detail: fmt.Sprintf("ready set %v covers no acceptance set of A at %s (acceptance sets %v)",
					b.TauStar(c.b), a.StateName(c.a), a.AcceptanceSets(c.a)),
			}
		}
		for _, t := range b.IntEdges(c.b) {
			push(cfg{t, c.a}, i, "", true)
		}
		for _, ed := range b.ExtEdges(c.b) {
			a2, ok := a.PsiStep(c.a, ed.Event)
			if !ok {
				// Safety already passed, so this cannot happen; defend anyway.
				return fmt.Errorf("sat: internal inconsistency: event %q at ψ state %s not allowed by A",
					ed.Event, a.StateName(c.a))
			}
			push(cfg{ed.To, a2}, i, ed.Event, false)
		}
	}
	return nil
}

// Prog implements the paper's prog predicate,
// prog.a.b ≡ ∃a' : a λ* a' ∧ sink.a' ∧ τ*.a' ⊆ readyB,
// where readyB is τ* of the implementation state (possibly of a composite
// such as ⟨b,c⟩ in the quotient's progress phase).
func Prog(a *spec.Spec, as spec.State, readyB []spec.Event) bool {
	for _, a2 := range a.LambdaClosure(as) {
		if a.Sink(a2) && spec.EventsSubset(a.TauStar(a2), readyB) {
			return true
		}
	}
	return false
}

// Satisfies checks both safety and progress; the first failure is returned.
// The safety search runs once: it is Progress's precondition too.
func Satisfies(b, a *spec.Spec) error {
	if err := Safety(b, a); err != nil {
		return err
	}
	if err := a.IsNormalForm(); err != nil {
		return fmt.Errorf("sat: %w", err)
	}
	return progressWalk(b, a)
}

func stateSetKey(sts []spec.State) string {
	var sb strings.Builder
	for i, st := range sts {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprint(&sb, int(st))
	}
	return sb.String()
}
