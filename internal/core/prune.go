package core

import (
	"fmt"

	"protoquot/internal/compose"
	"protoquot/internal/spec"
)

// Prune removes "useless" portions of a converter — the dotted boxes of the
// paper's Figure 14: behavior that is harmless (B‖C still satisfies A
// without it) but contributes nothing, such as cycles that only recover via
// message loss. The paper notes such removal "is computationally expensive
// and is best done by hand"; Prune automates a greedy version. Every
// candidate removal — each state, then each transition, restarting after
// every accepted one — costs one compiled check over integer tables of
// B‖C′ (pruneChecker), which returns the verdict Verify would; only
// accepted removals are rebuilt as specs. A check is linear in the
// reachable part of B‖C′ (times at most |S_A| for the ψ walk), so Prune is
// O(candidates · |B‖C|) for a fixed service.
//
// The result is a correct converter whose trace set is a subset of the
// input's; it is locally minimal (no single state or transition can be
// removed without breaking correctness) but not guaranteed globally
// minimum. Prune never touches the initial state and preserves the
// interface alphabet.
func Prune(a, b, c *spec.Spec) (*spec.Spec, error) {
	return PruneRobust(a, []*spec.Spec{b}, c)
}

// PruneRobust is Prune against several environment variants at once: a
// removal is kept only if B_i‖C' still satisfies A for every variant. Use
// it on DeriveRobust output to obtain a compact converter that does not
// depend on which variant the deployment resembles — in particular, one
// whose progress does not rely on message loss occurring.
func PruneRobust(a *spec.Spec, bs []*spec.Spec, c *spec.Spec) (*spec.Spec, error) {
	envs := make([]Environment, len(bs))
	for i, b := range bs {
		envs[i] = b
	}
	return PruneEnvs(a, envs, c)
}

// PruneEnvs is PruneRobust over any Environment variants — most usefully
// the *compose.Lazy a derivation ran over, whose already-expanded rows the
// check reuses instead of composing the environment again. A demand-driven
// variant is materialized only to name the failure when the input is not a
// correct converter.
func PruneEnvs(a *spec.Spec, bs []Environment, c *spec.Spec) (*spec.Spec, error) {
	pc, err := newPruneChecker(a, bs, c)
	if err != nil || !pc.ok(noRemoval) {
		// Verify names the failure. The checker gives up only where Verify
		// must fail too (A not in normal form, Σ(B‖C) ≠ Σ_A), and refuses
		// only what Verify refuses; a disagreement is a bug.
		if verr := verifyEnvs(a, bs, c); verr != nil {
			return nil, fmt.Errorf("quotient: Prune input is not a correct converter: %w", verr)
		}
		if err != nil {
			return nil, fmt.Errorf("quotient: internal error: prune checker: %v, yet Verify accepts the input", err)
		}
		return nil, fmt.Errorf("quotient: internal error: prune checker rejects an input Verify accepts")
	}
	cur := c
	for {
		next, changed := pc.pruneOnce(cur)
		if !changed {
			return cur, nil
		}
		cur = next
	}
}

// pruneOnce attempts one pass of state removals then transition removals,
// returning the improved converter and whether anything changed.
func (pc *pruneChecker) pruneOnce(cur *spec.Spec) (*spec.Spec, bool) {
	changed := false
	accept := func(next *spec.Spec) {
		cur = next
		pc.setConverter(cur)
		changed = true
	}
	// States (never the initial one), in stable order.
	for st := 0; st < cur.NumStates(); st++ {
		if spec.State(st) == cur.Init() {
			continue
		}
		if pc.ok(removal{state: int32(st), from: -1, edge: -1}) {
			accept(removeState(cur, spec.State(st)))
			st = -1 // restart: indices shifted
		}
	}
	// Individual transitions.
	for st := 0; st < cur.NumStates(); st++ {
		edges := cur.ExtEdges(spec.State(st))
		for ei := 0; ei < len(edges); ei++ {
			if pc.ok(removal{state: -1, from: int32(st), edge: ei}) {
				accept(removeEdge(cur, spec.State(st), edges[ei]))
				edges = cur.ExtEdges(spec.State(st))
				ei = -1
			}
		}
	}
	return cur, changed
}

// verifyEnvs is VerifyRobust over environments, materializing demand-driven
// ones: the string-keyed path that names a failure.
func verifyEnvs(a *spec.Spec, bs []Environment, c *spec.Spec) error {
	specs := make([]*spec.Spec, len(bs))
	for i, b := range bs {
		switch e := b.(type) {
		case *spec.Spec:
			specs[i] = e
		case *compose.Lazy:
			s, err := e.Spec()
			if err != nil {
				return fmt.Errorf("materializing environment %s: %w", b.Name(), err)
			}
			specs[i] = s
		default:
			return fmt.Errorf("environment %s (%T) cannot be materialized for verification", b.Name(), b)
		}
	}
	return VerifyRobust(a, specs, c)
}

// removeState rebuilds cur without state victim (and without its incident
// transitions), trimmed to reachable states. Returns nil if the victim is
// the initial state.
func removeState(cur *spec.Spec, victim spec.State) *spec.Spec {
	if victim == cur.Init() {
		return nil
	}
	b := spec.NewBuilder(cur.Name())
	for _, e := range cur.Alphabet() {
		b.Event(e)
	}
	b.Init(cur.StateName(cur.Init()))
	for st := 0; st < cur.NumStates(); st++ {
		if spec.State(st) == victim {
			continue
		}
		b.State(cur.StateName(spec.State(st)))
		for _, ed := range cur.ExtEdges(spec.State(st)) {
			if ed.To == victim {
				continue
			}
			b.Ext(cur.StateName(spec.State(st)), ed.Event, cur.StateName(ed.To))
		}
		for _, t := range cur.IntEdges(spec.State(st)) {
			if t == victim {
				continue
			}
			b.Int(cur.StateName(spec.State(st)), cur.StateName(t))
		}
	}
	return b.MustBuild().Trim()
}

// removeEdge rebuilds cur without one external transition, trimmed.
func removeEdge(cur *spec.Spec, from spec.State, victim spec.ExtEdge) *spec.Spec {
	b := spec.NewBuilder(cur.Name())
	for _, e := range cur.Alphabet() {
		b.Event(e)
	}
	b.Init(cur.StateName(cur.Init()))
	for st := 0; st < cur.NumStates(); st++ {
		b.State(cur.StateName(spec.State(st)))
		for _, ed := range cur.ExtEdges(spec.State(st)) {
			if spec.State(st) == from && ed == victim {
				continue
			}
			b.Ext(cur.StateName(spec.State(st)), ed.Event, cur.StateName(ed.To))
		}
		for _, t := range cur.IntEdges(spec.State(st)) {
			b.Int(cur.StateName(spec.State(st)), cur.StateName(t))
		}
	}
	return b.MustBuild().Trim()
}
