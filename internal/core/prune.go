package core

import (
	"cmp"
	"fmt"
	"slices"

	"protoquot/internal/compose"
	"protoquot/internal/spec"
)

// Prune removes "useless" portions of a converter — the dotted boxes of the
// paper's Figure 14: behavior that is harmless (B‖C still satisfies A
// without it) but contributes nothing, such as cycles that only recover via
// message loss. The paper notes such removal "is computationally expensive
// and is best done by hand"; Prune automates a greedy version. Every
// candidate removal — each state, then each transition, restarting after
// every accepted one — costs one walk of the compiled checker
// (pruneChecker), which explores each variant's B‖C once and returns the
// verdict Verify would give for B‖C′. An accepted removal joins the
// checker's filters and is applied to its converter tables, which are then
// trimmed and renumbered exactly as spec.Builder + Spec.Trim would number
// the rebuilt converter (apply): that numbering is a first-mention order,
// not the old index order, and the greedy loop's candidate order depends
// on it. A pass whose last accepted removal is a state ends the loop: it
// has rejected every candidate of the final converter already. The result
// is emitted once, by spec.FromDense with the input's state names. A walk
// stops at the first failing configuration and is at most linear in the
// reachable part of B‖C′ (times |S_A| for the ψ walk), so Prune costs one
// exploration of B‖C plus the candidates' walked footprints.
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
	return pc.prune(c)
}

// prune runs the greedy loop from input converter c, which the checker
// accepts, and emits the result.
func (pc *pruneChecker) prune(c *spec.Spec) (*spec.Spec, error) {
	changed := false
	for {
		progress, settled := pc.pruneOnce()
		changed = changed || progress
		if !progress || settled {
			break
		}
	}
	if !changed {
		return c, nil
	}
	return pc.converter(c)
}

// pruneOnce attempts one pass of state removals then transition removals
// over the checker's converter tables. It reports whether anything changed,
// and whether the pass settled the converter: when its last accepted
// removal was a state, the state loop restarted and rejected every state,
// then the transition loop rejected every transition, all against the
// converter as it now stands, so another pass would only repeat those
// verdicts.
func (pc *pruneChecker) pruneOnce() (changed, settled bool) {
	// States (never the initial one), in stable order.
	for st := int32(0); st < int32(len(pc.cExt)); st++ {
		if st == pc.cInit {
			continue
		}
		if rm := (removal{state: st, from: -1, edge: -1}); pc.ok(rm) {
			pc.apply(rm)
			changed, settled = true, true
			st = -1 // restart: indices shifted
		}
	}
	// Individual transitions. An accepted one may trim the converter to st
	// states or fewer, which ends the pass.
	for st := int32(0); st < int32(len(pc.cExt)); st++ {
		for ei := 0; st < int32(len(pc.cExt)) && ei < len(pc.cExt[st]); ei++ {
			if rm := (removal{state: -1, from: st, edge: ei}); pc.ok(rm) {
				pc.apply(rm)
				changed, settled = true, false
				ei = -1
			}
		}
	}
	return changed, settled
}

// apply removes rm from the checker's converter tables, records it in the
// checker's filters, and trims the tables to the states reachable from the
// initial one. The survivors are numbered exactly as rebuilding the
// converter through spec.Builder and then Spec.Trim would number them, so
// the candidate order of the greedy loop — and with it the pruned
// converter — does not depend on how the removal is carried out. Both
// numberings are one renumber pass: the Builder's over every state but a
// removed one, then Trim's over the reachable states.
func (pc *pruneChecker) apply(rm removal) {
	if rm.state >= 0 {
		pc.goneState[pc.cOrig[rm.state]] = true
	} else {
		pc.goneEdge[pc.cExt[rm.from][rm.edge].ID] = true
	}
	if pc.applied != nil {
		defer pc.applied()
	}
	keep := make([]bool, len(pc.cExt))
	for st := range keep {
		keep[st] = int32(st) != rm.state
	}
	if rm.state >= 0 {
		for st := range pc.cExt {
			pc.cExt[st] = slices.DeleteFunc(pc.cExt[st], func(ed cedge) bool { return ed.To == rm.state })
			pc.cIntl[st] = slices.DeleteFunc(pc.cIntl[st], func(t int32) bool { return t == rm.state })
		}
	} else {
		pc.cExt[rm.from] = slices.Delete(pc.cExt[rm.from], rm.edge, rm.edge+1)
	}
	pc.renumber(keep)

	reach := keep[:len(pc.cExt)]
	clear(reach)
	var stack []int32
	visit := func(t int32) {
		if !reach[t] {
			reach[t] = true
			stack = append(stack, t)
		}
	}
	visit(pc.cInit)
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ed := range pc.cExt[st] {
			visit(ed.To)
		}
		for _, t := range pc.cIntl[st] {
			visit(t)
		}
	}
	pc.renumber(reach)
}

// renumber keeps the states keep admits and numbers them as spec.Builder
// numbers states declared in index order: the initial state first, then
// each kept state followed by the targets of its external and then its
// internal edges, each at its first mention. Edges are re-sorted by (event,
// target), the order spec.Spec keeps them in. Every edge of a kept state
// must lead to a kept state.
func (pc *pruneChecker) renumber(keep []bool) {
	id := make([]int32, len(pc.cExt))
	for st := range id {
		id[st] = -1
	}
	order := make([]int32, 0, len(pc.cExt))
	mention := func(st int32) {
		if id[st] < 0 {
			id[st] = int32(len(order))
			order = append(order, st)
		}
	}
	mention(pc.cInit)
	for st := range pc.cExt {
		if !keep[st] {
			continue
		}
		mention(int32(st))
		for _, ed := range pc.cExt[st] {
			mention(ed.To)
		}
		for _, t := range pc.cIntl[st] {
			mention(t)
		}
	}
	ext := make([][]cedge, len(order))
	intl := make([][]int32, len(order))
	orig := make([]int32, len(order))
	for i, st := range order {
		row := pc.cExt[st]
		for j := range row {
			row[j].To = id[row[j].To]
		}
		slices.SortFunc(row, func(x, y cedge) int {
			if x.Ev != y.Ev {
				return cmp.Compare(x.Ev, y.Ev)
			}
			return cmp.Compare(x.To, y.To)
		})
		tos := pc.cIntl[st]
		for j := range tos {
			tos[j] = id[tos[j]]
		}
		slices.Sort(tos)
		ext[i], intl[i], orig[i] = row, tos, pc.cOrig[st]
	}
	pc.cInit, pc.cExt, pc.cIntl, pc.cOrig = 0, ext, intl, orig
}

// converter emits the checker's converter tables as a specification with
// c's name and alphabet, each state named after the state of c it came
// from.
func (pc *pruneChecker) converter(c *spec.Spec) (*spec.Spec, error) {
	alphabet := c.Alphabet()
	names := make([]string, len(pc.cExt))
	ext := make([][]spec.ExtEdge, len(pc.cExt))
	intl := make([][]spec.State, len(pc.cExt))
	for st := range names {
		names[st] = c.StateName(spec.State(pc.cOrig[st]))
		for _, ed := range pc.cExt[st] {
			ext[st] = append(ext[st], spec.ExtEdge{Event: alphabet[ed.Ev], To: spec.State(ed.To)})
		}
		for _, t := range pc.cIntl[st] {
			intl[st] = append(intl[st], spec.State(t))
		}
	}
	return spec.FromDense(spec.Dense{
		Name:       c.Name(),
		StateNames: names,
		Init:       spec.State(pc.cInit),
		Alphabet:   alphabet,
		Ext:        ext,
		Int:        intl,
	})
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
