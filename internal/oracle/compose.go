package oracle

import (
	"fmt"

	"protoquot/internal/spec"
)

// Compose returns the reachable part of the left fold
// ((s0 ‖ s1) ‖ s2) ‖ …, each step the paper's pairwise composition (§3)
// transcribed directly: events in Σ_A ∩ Σ_B synchronize and become
// internal, all other moves interleave, and the composite alphabet is the
// symmetric difference. States are named "a|b" and the composite
// "(A||B)", as compose.Many names them. There must be at least one
// component, and no event may be in three or more alphabets.
func Compose(specs ...*spec.Spec) *spec.Spec {
	cur := specs[0]
	for _, s := range specs[1:] {
		cur = pair(cur, s)
	}
	return cur
}

// pair is A ‖ B over the pairs of states reachable from the initial pair.
func pair(a, b *spec.Spec) *spec.Spec {
	shared := func(e spec.Event) bool { return a.HasEvent(e) && b.HasEvent(e) }
	bb := spec.NewBuilder(fmt.Sprintf("(%s||%s)", a.Name(), b.Name()))
	for _, e := range append(append([]spec.Event{}, a.Alphabet()...), b.Alphabet()...) {
		if !shared(e) {
			bb.Event(e)
		}
	}
	type st struct{ p, q spec.State }
	name := func(s st) string { return a.StateName(s.p) + "|" + b.StateName(s.q) }
	init := st{a.Init(), b.Init()}
	bb.Init(name(init))
	seen := map[st]bool{init: true}
	work := []st{init}
	var from string
	// move adds the transition from the current pair to t, on event e, or
	// internal when e is "" (no event has an empty name).
	move := func(t st, e spec.Event) {
		if e == "" {
			bb.Int(from, name(t))
		} else {
			bb.Ext(from, e, name(t))
		}
		if !seen[t] {
			seen[t] = true
			work = append(work, t)
		}
	}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		from = name(s)
		for _, ed := range a.ExtEdges(s.p) {
			if !shared(ed.Event) {
				move(st{ed.To, s.q}, ed.Event)
				continue
			}
			for _, fd := range b.ExtEdges(s.q) {
				if fd.Event == ed.Event {
					move(st{ed.To, fd.To}, "")
				}
			}
		}
		for _, ed := range b.ExtEdges(s.q) {
			if !shared(ed.Event) {
				move(st{s.p, ed.To}, ed.Event)
			}
		}
		for _, to := range a.IntEdges(s.p) {
			move(st{to, s.q}, "")
		}
		for _, to := range b.IntEdges(s.q) {
			move(st{s.p, to}, "")
		}
	}
	return bb.MustBuild()
}
