package sat

import (
	"fmt"
	"math/bits"
	"sort"

	"protoquot/internal/spec"
)

// This file is the indexed fast path for the prog predicate. The quotient's
// progress phase evaluates prog.a.⟨b,c⟩ once per composite state per sweep;
// going through Prog means materializing the composite ready set as a sorted
// []spec.Event and walking A's λ-closure with slice subset tests every time.
// ReadyIndex fixes a bit position per event, and AcceptanceIndex precompiles
// each A-state's acceptance sets (τ*.a' for the sinks a' of its λ-closure)
// into bitmasks over that universe, reducing prog to a few word-wide subset
// tests against a ready mask the engine maintains incrementally.

// ReadyIndex assigns each event of a fixed universe a bit position, defining
// the layout of ready-set masks. The universe is ordered: bit i is events[i].
type ReadyIndex struct {
	events []spec.Event
	pos    map[spec.Event]int
	words  int
}

// NewReadyIndex builds the index over the given event universe, in order.
// Duplicate events are an error.
func NewReadyIndex(events []spec.Event) (*ReadyIndex, error) {
	ix := &ReadyIndex{
		events: append([]spec.Event(nil), events...),
		pos:    make(map[spec.Event]int, len(events)),
		words:  (len(events) + 63) / 64,
	}
	for i, e := range events {
		if _, dup := ix.pos[e]; dup {
			return nil, fmt.Errorf("sat: duplicate event %q in ready universe", e)
		}
		ix.pos[e] = i
	}
	return ix, nil
}

// Words returns the mask stride: the number of uint64 words a mask needs.
func (ix *ReadyIndex) Words() int { return ix.words }

// Bit returns the bit position of e, or false if e is outside the universe.
func (ix *ReadyIndex) Bit(e spec.Event) (int, bool) {
	i, ok := ix.pos[e]
	return i, ok
}

// Set sets e's bit in mask (which must have Words() words). Events outside
// the universe are an error — a silently dropped ready event would make
// prog spuriously fail.
func (ix *ReadyIndex) Set(mask []uint64, e spec.Event) error {
	i, ok := ix.pos[e]
	if !ok {
		return fmt.Errorf("sat: event %q outside ready universe", e)
	}
	mask[i>>6] |= 1 << (uint(i) & 63)
	return nil
}

// MaskOf allocates and returns the mask of an event list.
func (ix *ReadyIndex) MaskOf(events []spec.Event) ([]uint64, error) {
	mask := make([]uint64, ix.words)
	for _, e := range events {
		if err := ix.Set(mask, e); err != nil {
			return nil, err
		}
	}
	return mask, nil
}

// EventsOf decodes a mask back to its event list, in universe order. Only
// diagnostics paths should need this.
func (ix *ReadyIndex) EventsOf(mask []uint64) []spec.Event {
	var out []spec.Event
	for w, word := range mask {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			if i := w<<6 + b; i < len(ix.events) {
				out = append(out, ix.events[i])
			}
		}
	}
	return out
}

// AcceptanceIndex precompiles prog for a normal-form specification A: for
// every A-state, the bitmasks of its acceptance sets, minimized (a mask that
// is a superset of another candidate can never be the only one covered, so
// it is dropped). Prog(as, ready) is then "some candidate mask ⊆ ready".
type AcceptanceIndex struct {
	// Candidate masks of state s are masks[offs[s]*words : offs[s+1]*words],
	// in mask units of the ready stride, each candidate `words` long.
	masks []uint64
	offs  []int32
	words int
}

// NewAcceptanceIndex compiles A's acceptance sets over the ready universe.
// A must be in normal form, and every event A can engage in after some
// trace (its τ* sets) must be in the universe.
func NewAcceptanceIndex(a *spec.Spec, ready *ReadyIndex) (*AcceptanceIndex, error) {
	if err := a.IsNormalForm(); err != nil {
		return nil, fmt.Errorf("sat: %w", err)
	}
	w := ready.Words()
	ix := &AcceptanceIndex{
		offs:  make([]int32, a.NumStates()+1),
		words: w,
	}
	for s := 0; s < a.NumStates(); s++ {
		var cands [][]uint64
		for _, a2 := range a.LambdaClosure(spec.State(s)) {
			if !a.Sink(a2) {
				continue
			}
			m, err := ready.MaskOf(a.TauStar(a2))
			if err != nil {
				return nil, fmt.Errorf("sat: state %s: %w", a.StateName(a2), err)
			}
			cands = append(cands, m)
		}
		cands = minimizeMasks(cands)
		for _, m := range cands {
			ix.masks = append(ix.masks, m...)
		}
		ix.offs[s+1] = ix.offs[s] + int32(len(cands))
	}
	return ix, nil
}

// Prog reports the paper's prog predicate for A-state as against a ready
// mask: ∃a' : as λ* a' ∧ sink.a' ∧ τ*.a' ⊆ ready. Equivalent to
// sat.Prog(a, as, readyEvents) with ready = MaskOf(readyEvents).
func (ix *AcceptanceIndex) Prog(as spec.State, ready []uint64) bool {
	w := ix.words
	for o := ix.offs[as]; o < ix.offs[as+1]; o++ {
		m := ix.masks[int(o)*w : int(o+1)*w]
		if MaskSubset(m, ready) {
			return true
		}
	}
	return false
}

// NumCandidates returns how many (minimized) acceptance masks state as has;
// 0 means prog can never hold there.
func (ix *AcceptanceIndex) NumCandidates(as spec.State) int {
	return int(ix.offs[as+1] - ix.offs[as])
}

// minimizeMasks drops duplicates and strict supersets, keeping the ⊆-minimal
// antichain, and orders the result deterministically (by popcount, then
// lexicographically by words) so the index layout is reproducible.
func minimizeMasks(cands [][]uint64) [][]uint64 {
	var keep [][]uint64
	for i, m := range cands {
		redundant := false
		for j, o := range cands {
			if i == j {
				continue
			}
			if MaskSubset(o, m) && (!MaskSubset(m, o) || j < i) {
				// o is a strict subset, or an equal mask seen earlier.
				redundant = true
				break
			}
		}
		if !redundant {
			keep = append(keep, m)
		}
	}
	sort.Slice(keep, func(i, j int) bool {
		pi, pj := Popcount(keep[i]), Popcount(keep[j])
		if pi != pj {
			return pi < pj
		}
		for w := range keep[i] {
			if keep[i][w] != keep[j][w] {
				return keep[i][w] < keep[j][w]
			}
		}
		return false
	})
	return keep
}
