// Package oracle contains slow, direct transcriptions of the paper's
// definitions, used as reference implementations to cross-check the
// optimized algorithms in internal/core and internal/sat. Nothing here is
// meant to be fast; everything is meant to be obviously correct.
package oracle

import (
	"fmt"
	"strings"

	"protoquot/internal/spec"
)

// ProjectInt returns i.t — the projection of a trace of B onto the
// converter-facing alphabet Int (paper §4). Events in ext are dropped;
// all others are kept.
func ProjectInt(t []spec.Event, ext map[spec.Event]bool) []spec.Event {
	var out []spec.Event
	for _, e := range t {
		if !ext[e] {
			out = append(out, e)
		}
	}
	return out
}

// ProjectExt returns o.t — the projection of a trace of B onto the
// user-facing alphabet Ext.
func ProjectExt(t []spec.Event, ext map[spec.Event]bool) []spec.Event {
	var out []spec.Event
	for _, e := range t {
		if ext[e] {
			out = append(out, e)
		}
	}
	return out
}

// HereditarilySafe decides whether r and every prefix of r is safe in the
// paper's sense,
//
//	safe.r ≡ ∀t : (i.t = r ∧ B.t) ⇒ A.(o.t),
//
// by direct search. Hereditary safety is exactly membership in the
// safety-phase converter C0: by the paper's properties P2/P3 and
// Theorem 1, C0.r ⟺ every prefix r' of r has ok.(h.r'), and ok.(h.r')
// fails precisely when some B-run matching r' can emit an external event A
// forbids. (Plain safe.r is weaker: a trace can be trivially safe while a
// prefix is not; converters need the prefix-closed notion.)
//
// Because B's matching traces may interleave arbitrarily many Ext events,
// the search runs over configurations (B-state, A-subset) per position in
// r rather than enumerating traces.
func HereditarilySafe(a, b *spec.Spec, ext map[spec.Event]bool, r []spec.Event) bool {
	// A configuration is (bState, aStateSet-after-o.t). If any reachable
	// configuration lets B take an Ext event that A's subset cannot, some
	// matching t violates A.(o.t); if the A-subset would become empty the
	// same holds.
	type cfg struct {
		b  spec.State
		ak string
	}
	subsets := map[string][]spec.State{}
	key := func(sts []spec.State) string {
		var sb strings.Builder
		for _, st := range sts {
			fmt.Fprintf(&sb, "%d,", int(st))
		}
		return sb.String()
	}
	aInit := closure(a, []spec.State{a.Init()})
	subsets[key(aInit)] = aInit

	// frontier at position k of r.
	seen := map[cfg]bool{}
	var frontier []cfg
	push := func(c cfg, into *[]cfg) {
		if !seen[c] {
			seen[c] = true
			*into = append(*into, c)
		}
	}
	push(cfg{b.Init(), key(aInit)}, &frontier)

	for k := 0; k <= len(r); k++ {
		// Close the frontier under B's internal moves and Ext moves
		// (joint with A); any unmatched Ext move is a violation.
		for i := 0; i < len(frontier); i++ {
			c := frontier[i]
			as := subsets[c.ak]
			for _, t := range b.IntEdges(c.b) {
				push(cfg{t, c.ak}, &frontier)
			}
			for _, ed := range b.ExtEdges(c.b) {
				if !ext[ed.Event] {
					continue
				}
				nxt := step(a, as, ed.Event)
				if len(nxt) == 0 {
					return false
				}
				nk := key(nxt)
				if _, ok := subsets[nk]; !ok {
					subsets[nk] = nxt
				}
				push(cfg{ed.To, nk}, &frontier)
			}
		}
		if k == len(r) {
			break
		}
		// Advance by r[k] (an Int event of B; A's subset is unchanged).
		var next []cfg
		seen = map[cfg]bool{}
		for _, c := range frontier {
			for _, ed := range b.ExtEdges(c.b) {
				if ed.Event == r[k] {
					push(cfg{ed.To, c.ak}, &next)
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			return true // no trace of B matches r: trivially safe
		}
	}
	return true
}

// MaxSafeConverterTraces enumerates, to the given length bound, every
// hereditarily safe Int-trace — the trace set the paper's Theorem 1 says
// the safety-phase converter C0 must have. Used to cross-check the safety
// phase on small instances.
func MaxSafeConverterTraces(a, b *spec.Spec, ext map[spec.Event]bool, intl []spec.Event, maxLen int) [][]spec.Event {
	var out [][]spec.Event
	var rec func(r []spec.Event)
	rec = func(r []spec.Event) {
		if !HereditarilySafe(a, b, ext, r) {
			return
		}
		cp := make([]spec.Event, len(r))
		copy(cp, r)
		out = append(out, cp)
		if len(r) == maxLen {
			return
		}
		for _, e := range intl {
			rec(append(r, e))
		}
	}
	rec(nil)
	return out
}

// closure ε-closes a state set of a by walking IntEdges, independently of
// spec's own closure routines, and returns it sorted.
func closure(a *spec.Spec, sts []spec.State) []spec.State {
	seenSt := map[spec.State]bool{}
	for _, st := range sts {
		for u := range lambdaClosureRaw(a, st) {
			seenSt[u] = true
		}
	}
	out := make([]spec.State, 0, len(seenSt))
	for st := range seenSt {
		out = append(out, st)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func step(a *spec.Spec, sts []spec.State, e spec.Event) []spec.State {
	var nxt []spec.State
	for _, st := range sts {
		for _, ed := range a.ExtEdges(st) {
			if ed.Event == e {
				nxt = append(nxt, ed.To)
			}
		}
	}
	if len(nxt) == 0 {
		return nil
	}
	return closure(a, nxt)
}
