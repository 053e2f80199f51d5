package core

import (
	"fmt"
	"math/bits"

	"protoquot/internal/sat"
	"protoquot/internal/spec"
)

// pruneChecker decides Verify's verdict — does B_i‖C′ satisfy A for every
// variant? — for the candidates Prune tries, where C′ is the current
// converter minus one state or one external transition, without building C′
// or B‖C′ as specifications. It is compiled once per PruneEnvs call: each
// variant's edge rows with events resolved to integer ids, A's ψ-step
// table, and an AcceptanceIndex over Σ_A. The converter's own small tables
// are compiled once too; an accepted removal is applied to them in place
// (prune.go).
//
// A candidate is checked per variant in four steps: intern the reachable
// (b, c) pairs of B‖C′ (a removed state is never entered, a removed
// transition never taken, so C′'s trimming is implicit); take τ* of every
// composite state from one Tarjan pass over the composite's internal edges;
// walk the (composite, ψ_A) configurations; and fail when an external event
// has no ψ-step (safety) or prog fails against the τ* mask (progress).
// DESIGN.md §15 shows the verdict equals sat.Satisfies on compose.Pair's
// output when A is in normal form.
type pruneChecker struct {
	vars   []pruneVariant
	cEvent map[spec.Event]int32 // converter alphabet → event id

	numA  int
	aInit int32
	nExt  int     // |Σ_A|
	psi   []int32 // ψ_A step: psi[a*nExt+e], -1 where A refuses e
	acc   *sat.AcceptanceIndex
	words int // τ-mask stride over Σ_A

	// The current converter: external edges with event ids (indices into
	// the input converter's alphabet), internal successors, and the input
	// converter's state each state stands for.
	cInit int32
	cExt  [][]bedge
	cIntl [][]int32
	cOrig []int32

	// Per-candidate scratch, reused across candidates. Composite state x is
	// the pair (pb[x], pc[x]); its internal successors are
	// intTo[intOff[x]:intOff[x+1]], its external edges (event ids over Σ_A)
	// ext[extOff[x]:extOff[x+1]], and tau holds its τ mask.
	pairs         pairTable
	pb, pc        []int32
	intOff, intTo []int32
	extOff        []int32
	ext           []bedge
	tau           []uint64
	index, low    []int32 // Tarjan
	comp, stack   []int32
	frames        []tarjanFrame
	sccTau        []uint64 // τ* mask per SCC
	seen          []uint64 // visited (composite, A-state) configurations
	work          []int32  // configuration stack, (x, a) pairs
}

// pruneVariant is one environment variant compiled against Σ_A and the
// converter alphabet.
type pruneVariant struct {
	init int32
	rows envRows
	// bKind maps an event id of B's alphabet to its Σ_A id when B‖C keeps it
	// external, or to ^cev when it synchronizes with converter event cev.
	bKind []int32
	// cKind maps a converter event id to its Σ_A id when B‖C keeps it
	// external, or -1 when it synchronizes with B.
	cKind []int32
}

// removal names what a candidate drops from the current converter: one
// non-initial state with its incident transitions, or one external
// transition (by its index in ExtEdges(from)). Fields not in use are -1.
type removal struct {
	state int32
	from  int32
	edge  int
}

var noRemoval = removal{state: -1, from: -1, edge: -1}

type tarjanFrame struct{ v, pos int32 }

// newPruneChecker compiles the checker for service a, variants bs and
// converter c. It fails when the checker cannot decide Verify's verdict: A
// is not in normal form, or some Σ(B_i‖C) differs from Σ_A.
func newPruneChecker(a *spec.Spec, bs []Environment, c *spec.Spec) (*pruneChecker, error) {
	n := c.NumStates()
	pc := &pruneChecker{
		cEvent: make(map[spec.Event]int32, len(c.Alphabet())),
		cInit:  int32(c.Init()),
		cExt:   make([][]bedge, n),
		cIntl:  make([][]int32, n),
		cOrig:  make([]int32, n),
	}
	for i, e := range c.Alphabet() {
		pc.cEvent[e] = int32(i)
	}
	for st := 0; st < n; st++ {
		for _, ed := range c.ExtEdges(spec.State(st)) {
			pc.cExt[st] = append(pc.cExt[st], bedge{Ev: pc.cEvent[ed.Event], To: int32(ed.To)})
		}
		for _, t := range c.IntEdges(spec.State(st)) {
			pc.cIntl[st] = append(pc.cIntl[st], int32(t))
		}
		pc.cOrig[st] = int32(st)
	}
	if len(bs) == 0 {
		return pc, nil // no variant to satisfy: every candidate passes
	}
	ready, err := sat.NewReadyIndex(a.Alphabet())
	if err != nil {
		return nil, err
	}
	if pc.acc, err = sat.NewAcceptanceIndex(a, ready); err != nil {
		return nil, err // A is not in normal form
	}
	pc.words = ready.Words()
	pc.numA, pc.aInit, pc.nExt = a.NumStates(), int32(a.Init()), len(a.Alphabet())
	pc.psi = make([]int32, pc.numA*pc.nExt)
	for s := 0; s < pc.numA; s++ {
		for e, ev := range a.Alphabet() {
			pc.psi[s*pc.nExt+e] = -1
			if to, ok := a.PsiStep(spec.State(s), ev); ok {
				pc.psi[s*pc.nExt+e] = int32(to)
			}
		}
	}
	for _, b := range bs {
		v := pruneVariant{
			init:  int32(b.Init()),
			rows:  newEnvRows(b),
			bKind: make([]int32, len(b.Alphabet())),
			cKind: make([]int32, len(c.Alphabet())),
		}
		external := 0
		resolve := func(e spec.Event) (int32, error) {
			k, ok := ready.Bit(e)
			if !ok {
				return 0, fmt.Errorf("quotient: event %q of %s‖%s is not in Σ_A", e, b.Name(), c.Name())
			}
			external++
			return int32(k), nil
		}
		for i, e := range b.Alphabet() {
			if cev, shared := pc.cEvent[e]; shared {
				v.bKind[i] = ^cev
			} else if v.bKind[i], err = resolve(e); err != nil {
				return nil, err
			}
		}
		for j, e := range c.Alphabet() {
			if b.HasEvent(e) {
				v.cKind[j] = -1
			} else if v.cKind[j], err = resolve(e); err != nil {
				return nil, err
			}
		}
		if external != pc.nExt {
			return nil, fmt.Errorf("quotient: %s‖%s has %d external events, Σ_A has %d",
				b.Name(), c.Name(), external, pc.nExt)
		}
		pc.vars = append(pc.vars, v)
	}
	return pc, nil
}

// ok reports whether every variant composed with the current converter
// minus rm satisfies A.
func (pc *pruneChecker) ok(rm removal) bool {
	for i := range pc.vars {
		pc.explore(&pc.vars[i], rm)
		pc.closeTau()
		if !pc.walk() {
			return false
		}
	}
	return true
}

// explore interns the reachable states of B‖C′ in breadth-first order and
// records their internal and external edges and τ masks, following
// compose.Pair: moves of either side on unshared events interleave (external
// events stay external, internal moves stay internal) and shared events
// synchronize into internal moves.
func (pc *pruneChecker) explore(v *pruneVariant, rm removal) {
	pc.pairs.reset()
	pc.pb, pc.pc = pc.pb[:0], pc.pc[:0]
	pc.intOff, pc.intTo = append(pc.intOff[:0], 0), pc.intTo[:0]
	pc.extOff, pc.ext = append(pc.extOff[:0], 0), pc.ext[:0]
	pc.tau = pc.tau[:0]
	w := pc.words
	pc.intern(v.init, pc.cInit)
	for x := 0; x < len(pc.pb); x++ {
		b, c := pc.pb[x], pc.pc[x]
		bext, bintl := v.rows.rows(b)
		cext := pc.cExt[c]
		for _, t := range bintl {
			pc.intTo = append(pc.intTo, pc.intern(t, c))
		}
		for _, t := range pc.cIntl[c] {
			if t != rm.state {
				pc.intTo = append(pc.intTo, pc.intern(b, t))
			}
		}
		for _, ed := range bext {
			k := v.bKind[ed.Ev]
			if k >= 0 {
				pc.ext = append(pc.ext, bedge{Ev: k, To: pc.intern(ed.To, c)})
				pc.tau[x*w+int(k>>6)] |= 1 << (uint(k) & 63)
				continue
			}
			for i, ce := range cext {
				if ce.Ev == ^k && ce.To != rm.state && (c != rm.from || i != rm.edge) {
					pc.intTo = append(pc.intTo, pc.intern(ed.To, ce.To))
				}
			}
		}
		for i, ce := range cext {
			k := v.cKind[ce.Ev]
			if k < 0 || ce.To == rm.state || (c == rm.from && i == rm.edge) {
				continue
			}
			pc.ext = append(pc.ext, bedge{Ev: k, To: pc.intern(b, ce.To)})
			pc.tau[x*w+int(k>>6)] |= 1 << (uint(k) & 63)
		}
		pc.intOff = append(pc.intOff, int32(len(pc.intTo)))
		pc.extOff = append(pc.extOff, int32(len(pc.ext)))
	}
}

// intern returns the composite id of (b, c), adding it (with an empty τ
// mask) if new.
func (pc *pruneChecker) intern(b, c int32) int32 {
	id, isNew := pc.pairs.intern(uint64(uint32(b))<<32|uint64(uint32(c)), int32(len(pc.pb)))
	if isNew {
		pc.pb = append(pc.pb, b)
		pc.pc = append(pc.pc, c)
		for i := 0; i < pc.words; i++ {
			pc.tau = append(pc.tau, 0)
		}
	}
	return id
}

// closeTau computes τ* for every composite state by one iterative Tarjan
// pass over the internal edges: SCCs complete in reverse topological order,
// so an SCC's τ* is its members' τ masks joined with the τ* of the
// (already complete) SCCs its members step into. comp[x] indexes sccTau.
func (pc *pruneChecker) closeTau() {
	n := len(pc.pb)
	w := pc.words
	pc.index = resizeSlice(pc.index, n)
	pc.low = resizeSlice(pc.low, n)
	pc.comp = resizeSlice(pc.comp, n)
	for i := range pc.index {
		pc.index[i], pc.comp[i] = -1, -1
	}
	pc.stack, pc.sccTau = pc.stack[:0], pc.sccTau[:0]
	next, nscc := int32(0), int32(0)
	for root := int32(0); root < int32(n); root++ {
		if pc.index[root] >= 0 {
			continue
		}
		pc.index[root], pc.low[root] = next, next
		next++
		pc.stack = append(pc.stack, root)
		pc.frames = append(pc.frames[:0], tarjanFrame{v: root, pos: pc.intOff[root]})
		for len(pc.frames) > 0 {
			f := &pc.frames[len(pc.frames)-1]
			v := f.v
			if f.pos < pc.intOff[v+1] {
				u := pc.intTo[f.pos]
				f.pos++
				if pc.index[u] < 0 {
					pc.index[u], pc.low[u] = next, next
					next++
					pc.stack = append(pc.stack, u)
					pc.frames = append(pc.frames, tarjanFrame{v: u, pos: pc.intOff[u]})
				} else if pc.comp[u] < 0 && pc.index[u] < pc.low[v] {
					pc.low[v] = pc.index[u] // u is on the stack
				}
				continue
			}
			pc.frames = pc.frames[:len(pc.frames)-1]
			if len(pc.frames) > 0 {
				if p := pc.frames[len(pc.frames)-1].v; pc.low[v] < pc.low[p] {
					pc.low[p] = pc.low[v]
				}
			}
			if pc.low[v] != pc.index[v] {
				continue
			}
			// v roots an SCC: its members sit on the stack from v up.
			top := len(pc.stack) - 1
			for pc.stack[top] != v {
				top--
			}
			members := pc.stack[top:]
			for _, m := range members {
				pc.comp[m] = nscc
			}
			base := len(pc.sccTau)
			for i := 0; i < w; i++ {
				pc.sccTau = append(pc.sccTau, 0)
			}
			mask := pc.sccTau[base:]
			for _, m := range members {
				if w == 0 {
					break // Σ_A is empty: every mask is empty
				}
				sat.OrInto(mask, pc.tau[int(m)*w:int(m+1)*w])
				for _, u := range pc.intTo[pc.intOff[m]:pc.intOff[m+1]] {
					if cu := pc.comp[u]; cu != nscc {
						sat.OrInto(mask, pc.sccTau[int(cu)*w:int(cu+1)*w])
					}
				}
			}
			pc.stack = pc.stack[:top]
			nscc++
		}
	}
}

// walk searches the (composite, ψ_A) configurations reachable from the
// initial one. It fails at the first external event A refuses after the
// trace so far (safety) or the first configuration whose τ* mask covers no
// acceptance set of its ψ state (progress).
func (pc *pruneChecker) walk() bool {
	n, w := len(pc.pb), pc.words
	pc.seen = resizeSlice(pc.seen, (n*pc.numA+63)/64)
	clear(pc.seen)
	pc.work = pc.work[:0]
	push := func(x, a int32) {
		bit := int(x)*pc.numA + int(a)
		if pc.seen[bit>>6]&(1<<(uint(bit)&63)) == 0 {
			pc.seen[bit>>6] |= 1 << (uint(bit) & 63)
			pc.work = append(pc.work, x, a)
		}
	}
	push(0, pc.aInit)
	for len(pc.work) > 0 {
		x, a := pc.work[len(pc.work)-2], pc.work[len(pc.work)-1]
		pc.work = pc.work[:len(pc.work)-2]
		cx := int(pc.comp[x])
		if !pc.acc.Prog(spec.State(a), pc.sccTau[cx*w:(cx+1)*w]) {
			return false
		}
		for _, y := range pc.intTo[pc.intOff[x]:pc.intOff[x+1]] {
			push(y, a)
		}
		for _, ed := range pc.ext[pc.extOff[x]:pc.extOff[x+1]] {
			a2 := pc.psi[int(a)*pc.nExt+int(ed.Ev)]
			if a2 < 0 {
				return false
			}
			push(ed.To, a2)
		}
	}
	return true
}

// envRows serves one variant's edge rows with events as ids into its
// alphabet: straight from a demand-driven environment, which expands states
// as the checker first reaches them, or from an eager one's compiled rows.
type envRows struct {
	lazy demandEnvironment
	ext  [][]bedge
	intl [][]int32
}

func newEnvRows(b Environment) envRows {
	if de, ok := b.(demandEnvironment); ok {
		return envRows{lazy: de}
	}
	eid := make(map[spec.Event]int32, len(b.Alphabet()))
	for i, e := range b.Alphabet() {
		eid[e] = int32(i)
	}
	ext, intl := compileRows(b, eid)
	return envRows{ext: ext, intl: intl}
}

func (r *envRows) rows(b int32) ([]bedge, []int32) {
	if r.lazy != nil {
		return r.lazy.Rows(spec.State(b))
	}
	return r.ext[b], r.intl[b]
}

// pairTable interns 64-bit keys to dense ids by open addressing. Slots carry
// the generation that filled them, so reset empties the table in O(1) and
// one allocation serves every candidate.
type pairTable struct {
	keys  []uint64
	ids   []int32
	gens  []uint32
	gen   uint32
	n     int
	shift uint // 64 − log2(len(keys))
}

func (t *pairTable) reset() {
	t.gen++
	t.n = 0
	if t.gen == 0 { // wrapped: stale stamps could alias the new generation
		clear(t.gens)
		t.gen = 1
	}
}

// intern returns k's id, assigning it next if k is new.
func (t *pairTable) intern(k uint64, next int32) (id int32, isNew bool) {
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	// Fibonacci hashing: the top bits of the product mix every key bit.
	mask := uint64(len(t.keys) - 1)
	for i := (k * 0x9E3779B97F4A7C15) >> t.shift; ; i = (i + 1) & mask {
		if t.gens[i] != t.gen {
			t.keys[i], t.ids[i], t.gens[i] = k, next, t.gen
			t.n++
			return next, true
		}
		if t.keys[i] == k {
			return t.ids[i], false
		}
	}
}

func (t *pairTable) grow() {
	keys, ids, gens, gen := t.keys, t.ids, t.gens, t.gen
	size := max(2*len(keys), 256)
	t.keys, t.ids, t.gens = make([]uint64, size), make([]int32, size), make([]uint32, size)
	t.gen, t.n = 1, 0
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i, g := range gens {
		if g == gen {
			t.intern(keys[i], ids[i])
		}
	}
}
