package core

import (
	"context"
	"fmt"

	"protoquot/internal/spec"
)

// Hooks for the external prune differential suite (prunecheck_test.go),
// which imports protosmith and so cannot live inside package core.

// RemoveState and RemoveEdge build Prune's candidate converters through
// spec.Builder and Spec.Trim, as Prune did before it applied removals to
// integer tables; refPruneRobust is built on them.
var (
	RemoveState = removeState
	RemoveEdge  = removeEdge
)

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

// PruneCheckVerdicts returns the compiled prune checker's verdicts on
// converter c: for c itself, for c without each state (false for the
// initial state, which Prune never removes), and for c without each external
// transition, indexed like ExtEdges.
func PruneCheckVerdicts(a *spec.Spec, bs []Environment, c *spec.Spec) (input bool, states []bool, edges [][]bool, err error) {
	pc, err := newPruneChecker(a, bs, c)
	if err != nil {
		return false, nil, nil, err
	}
	states = make([]bool, c.NumStates())
	edges = make([][]bool, c.NumStates())
	for st := range states {
		if spec.State(st) != c.Init() {
			states[st] = pc.ok(removal{state: int32(st), from: -1, edge: -1})
		}
		edges[st] = make([]bool, len(c.ExtEdges(spec.State(st))))
		for ei := range edges[st] {
			edges[st][ei] = pc.ok(removal{state: -1, from: int32(st), edge: ei})
		}
	}
	return pc.ok(noRemoval), states, edges, nil
}

// DeriveWithReferenceEmit derives like DeriveEnvsContext and, when a
// converter exists, also emits it with referenceEmit from the same
// surviving states, so the two emitters can be compared.
func DeriveWithReferenceEmit(a *spec.Spec, bs []Environment, opts Options) (res *Result, ref *spec.Spec, err error) {
	d, err := newDeriver(context.Background(), a, bs, opts)
	if err != nil {
		return nil, nil, err
	}
	res, err = d.run()
	if err != nil || !res.Exists {
		return res, nil, err
	}
	ref, err = d.referenceEmit()
	return res, ref, err
}

// referenceEmit is the converter emitter as it was before emitConverter,
// kept as its oracle: every live state and transition goes through
// spec.Builder's name maps, and Spec.Trim then rebuilds the spec restricted
// to the states reachable from the initial one.
func (d *deriver) referenceEmit() (*spec.Spec, error) {
	bld := spec.NewBuilder(d.converterName())
	for _, e := range d.intl {
		bld.Event(e)
	}
	bld.Init(d.stateName(0))
	for ci := range d.states {
		if !d.alive[ci] {
			continue
		}
		name := d.stateName(int32(ci))
		bld.State(name)
		for ei, t := range d.states[ci].succ {
			if t >= 0 && d.alive[t] {
				bld.Ext(name, d.intl[ei], d.stateName(t))
			}
		}
	}
	c, err := bld.Build()
	if err != nil {
		return nil, err
	}
	return c.Trim(), nil
}

// CheckProgressLayout runs the safety phase, builds the progress phase's
// pb-major memo — whose pbs are those the first sweep sweeps — and checks
// the invariant the sweep's merge walk relies on: for every pb and each of
// its τ-successors t, pb's columns are a subset of t's. It returns the
// number of (pb, t) pairs checked, 0 when the safety phase proves that no
// converter exists, and the first violation found.
func CheckProgressLayout(a *spec.Spec, bs []Environment, opts Options) (pairs int, err error) {
	d, err := newDeriver(context.Background(), a, bs, opts)
	if err != nil {
		return 0, err
	}
	d.met = &Metrics{}
	if err := d.safetyPhase(); err != nil {
		if _, ok := err.(*NoQuotientError); ok {
			return 0, nil
		}
		return 0, err
	}
	if err := d.initProgTables(); err != nil {
		return 0, err
	}
	pt := d.prog
	for pb := int32(0); pb < pt.totalB; pb++ {
		cols := pt.pbCol[pt.pbOff[pb]:pt.pbOff[pb+1]]
		if len(cols) == 0 {
			continue
		}
		boff := d.boff[d.variantOf(pb)]
		for _, t := range pt.ints[pb] {
			q := boff + t
			pairs++
			for _, c := range cols {
				if pt.pos(q, c) < 0 {
					return pairs, fmt.Errorf("pb %d is in column %d but its τ-successor %d is not", pb, c, q)
				}
			}
		}
	}
	return pairs, nil
}
