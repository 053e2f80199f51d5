package main

import (
	"fmt"

	"protoquot/internal/spec"
)

// redirectEdge rebuilds s with the external transition (from, e) sent to a
// different target state — the single-fault mutation behind -mutate: the
// mutant keeps the converter's alphabet, so it still wires into the
// system, but its first divergence from the derived specification is an
// event the reference does not enable. It fails if from, to, or the edge
// (from, e) does not exist.
func redirectEdge(s *spec.Spec, from string, e spec.Event, to string) (*spec.Spec, error) {
	fromSt, ok := s.LookupState(from)
	if !ok {
		return nil, fmt.Errorf("no state %q in %s", from, s.Name())
	}
	if _, ok := s.LookupState(to); !ok {
		return nil, fmt.Errorf("no state %q in %s", to, s.Name())
	}
	b := spec.NewBuilder(s.Name() + "~mut")
	for st := spec.State(0); int(st) < s.NumStates(); st++ {
		b.State(s.StateName(st))
	}
	b.Init(s.StateName(s.Init()))
	for _, ev := range s.Alphabet() {
		b.Event(ev)
	}
	redirected := false
	for st := spec.State(0); int(st) < s.NumStates(); st++ {
		name := s.StateName(st)
		for _, ed := range s.ExtEdges(st) {
			target := s.StateName(ed.To)
			if st == fromSt && ed.Event == e && !redirected {
				target = to
				redirected = true
			}
			b.Ext(name, ed.Event, target)
		}
		for _, t := range s.IntEdges(st) {
			b.Int(name, s.StateName(t))
		}
	}
	if !redirected {
		return nil, fmt.Errorf("state %q has no %q edge in %s", from, e, s.Name())
	}
	return b.Build()
}
