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
// or B‖C′ as specifications. It is compiled once per PruneEnvs call: A's
// ψ-step table, an AcceptanceIndex over Σ_A, the converter's own small
// tables, and each variant's composite B‖C with the input converter,
// explored once. An accepted removal is applied to the converter tables in
// place (prune.go) and recorded in two filters over input-converter ids:
// the removed states and the removed external edges.
//
// The current converter is the input minus everything filtered (what Trim
// drops is unreachable anyway), so B‖C′ is the part of the stored composite
// reachable from ⟨b₀, c₀⟩ without entering a composite whose converter
// state is filtered or taking a move that uses a filtered converter edge. A
// candidate joins the filters for the length of its check, which is one
// walk per variant over the (composite, ψ_A) configurations: it takes τ* of
// each composite it reaches from a Tarjan pass over the filtered internal
// edges rooted there, and fails when an external event has no ψ-step
// (safety) or prog fails against the τ* mask (progress). DESIGN.md §15
// shows the verdict equals sat.Satisfies on compose.Many's output when A is
// in normal form.
type pruneChecker struct {
	vars []pruneVariant

	numA  int
	aInit int32
	nExt  int     // |Σ_A|
	psi   []int32 // ψ_A step: psi[a*nExt+e], -1 where A refuses e
	acc   *sat.AcceptanceIndex
	words int // τ-mask stride over Σ_A

	// The current converter: external edges with event ids (indices into
	// the input converter's alphabet) and input-converter edge ids, internal
	// successors, and the input converter's state each state stands for.
	cInit int32
	cExt  [][]cedge
	cIntl [][]int32
	cOrig []int32

	// The filters, indexed by input-converter state and by cedge.ID: what
	// accepted removals (and, during a check, the candidate) took out.
	goneState []bool
	goneEdge  []bool

	checks  int    // checks run, the input's included
	applied func() // test hook: called after each accepted removal

	// Per-walk scratch, sized for the largest composite and reset in
	// O(touched). A composite's Tarjan fields are this walk's when its
	// stamp is gen; comp[x] indexes sccTau.
	gen         uint32
	stamp       []uint32
	index, low  []int32
	comp, stack []int32
	frames      []tarjanFrame
	own         []uint64 // per composite: its events and finished successors' τ*
	sccTau      []uint64 // τ* mask per SCC
	nscc        int32
	seen        []uint64 // visited (composite, A-state) configurations
	seenWords   []int    // the words of seen this walk set
	work        []int32  // configuration stack, (x, a) pairs
}

// cedge is one external edge of the current converter; ID numbers the
// input converter's external edges, so it survives renumbering.
type cedge struct {
	Ev, To, ID int32
}

// pruneVariant is one environment variant's composite with the input
// converter, explored under the rules of ‖. Composite x stands for
// input-converter state pc[x]; its internal successors are
// intTo[intOff[x]:intOff[x+1]] and its external edges (event ids over Σ_A)
// ext[extOff[x]:extOff[x+1]]. intUse and extUse, beside intTo and ext, name
// the input-converter external edge a move takes, -1 when it takes none.
type pruneVariant struct {
	pc            []int32
	intOff, intTo []int32
	intUse        []int32
	extOff        []int32
	ext           []bedge
	extUse        []int32
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
		cInit:     int32(c.Init()),
		cExt:      make([][]cedge, n),
		cIntl:     make([][]int32, n),
		cOrig:     make([]int32, n),
		goneState: make([]bool, n),
	}
	cEvent := make(map[spec.Event]int32, len(c.Alphabet()))
	for i, e := range c.Alphabet() {
		cEvent[e] = int32(i)
	}
	edges := int32(0)
	for st := 0; st < n; st++ {
		for _, ed := range c.ExtEdges(spec.State(st)) {
			pc.cExt[st] = append(pc.cExt[st], cedge{Ev: cEvent[ed.Event], To: int32(ed.To), ID: edges})
			edges++
		}
		for _, t := range c.IntEdges(spec.State(st)) {
			pc.cIntl[st] = append(pc.cIntl[st], int32(t))
		}
		pc.cOrig[st] = int32(st)
	}
	pc.goneEdge = make([]bool, edges)
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
	most := 0
	for _, b := range bs {
		// bKind maps an event id of B's alphabet to its Σ_A id when B‖C keeps
		// it external, or to ^cev when it synchronizes with converter event
		// cev; cKind maps a converter event id to its Σ_A id when B‖C keeps
		// it external, or -1 when it synchronizes with B.
		bKind := make([]int32, len(b.Alphabet()))
		cKind := make([]int32, len(c.Alphabet()))
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
			if cev, shared := cEvent[e]; shared {
				bKind[i] = ^cev
			} else if bKind[i], err = resolve(e); err != nil {
				return nil, err
			}
		}
		for j, e := range c.Alphabet() {
			if b.HasEvent(e) {
				cKind[j] = -1
			} else if cKind[j], err = resolve(e); err != nil {
				return nil, err
			}
		}
		if external != pc.nExt {
			return nil, fmt.Errorf("quotient: %s‖%s has %d external events, Σ_A has %d",
				b.Name(), c.Name(), external, pc.nExt)
		}
		v := pc.explore(asDemand(b), bKind, cKind)
		most = max(most, len(v.pc))
		pc.vars = append(pc.vars, v)
	}
	pc.stamp = make([]uint32, most)
	pc.index = make([]int32, most)
	pc.low = make([]int32, most)
	pc.comp = make([]int32, most)
	pc.own = make([]uint64, most*pc.words)
	pc.seen = make([]uint64, (most*pc.numA+63)/64)
	return pc, nil
}

// explore interns the reachable states of B‖C in breadth-first order and
// records their edges, following the rules of ‖: moves of either side on
// unshared events interleave (external events stay external, internal moves
// stay internal) and shared events synchronize into internal moves.
func (pc *pruneChecker) explore(env demandEnvironment, bKind, cKind []int32) pruneVariant {
	v := pruneVariant{intOff: []int32{0}, extOff: []int32{0}}
	var pairs pairTable
	var pb []int32
	intern := func(b, c int32) int32 {
		id, isNew := pairs.intern(uint64(uint32(b))<<32|uint64(uint32(c)), int32(len(pb)))
		if isNew {
			pb = append(pb, b)
			v.pc = append(v.pc, c)
		}
		return id
	}
	intern(int32(env.Init()), pc.cInit)
	for x := 0; x < len(pb); x++ {
		b, c := pb[x], v.pc[x]
		ext, ints := env.Rows(spec.State(b))
		for _, t := range ints {
			v.intTo, v.intUse = append(v.intTo, intern(t, c)), append(v.intUse, -1)
		}
		for _, t := range pc.cIntl[c] {
			v.intTo, v.intUse = append(v.intTo, intern(b, t)), append(v.intUse, -1)
		}
		for _, ed := range ext {
			k := bKind[ed.Ev]
			if k >= 0 {
				v.ext, v.extUse = append(v.ext, bedge{Ev: k, To: intern(ed.To, c)}), append(v.extUse, -1)
				continue
			}
			for _, ce := range pc.cExt[c] {
				if ce.Ev == ^k {
					v.intTo, v.intUse = append(v.intTo, intern(ed.To, ce.To)), append(v.intUse, ce.ID)
				}
			}
		}
		for _, ce := range pc.cExt[c] {
			if k := cKind[ce.Ev]; k >= 0 {
				v.ext, v.extUse = append(v.ext, bedge{Ev: k, To: intern(b, ce.To)}), append(v.extUse, ce.ID)
			}
		}
		v.intOff = append(v.intOff, int32(len(v.intTo)))
		v.extOff = append(v.extOff, int32(len(v.ext)))
	}
	return v
}

// ok reports whether every variant composed with the current converter
// minus rm satisfies A.
func (pc *pruneChecker) ok(rm removal) bool {
	st, ed := int32(-1), int32(-1)
	if rm.state >= 0 {
		st = pc.cOrig[rm.state]
		pc.goneState[st] = true
	}
	if rm.from >= 0 {
		ed = pc.cExt[rm.from][rm.edge].ID
		pc.goneEdge[ed] = true
	}
	pc.checks++
	holds := true
	for i := range pc.vars {
		if !pc.walk(&pc.vars[i]) {
			holds = false
			break
		}
	}
	if st >= 0 {
		pc.goneState[st] = false
	}
	if ed >= 0 {
		pc.goneEdge[ed] = false
	}
	return holds
}

// live reports whether the move into composite y, taking input-converter
// edge use (-1 for none), survives the filters.
func (pc *pruneChecker) live(v *pruneVariant, y, use int32) bool {
	return !pc.goneState[v.pc[y]] && (use < 0 || !pc.goneEdge[use])
}

// walk searches the (composite, ψ_A) configurations of B‖C′ reachable from
// the initial one. It fails at the first external event A refuses after the
// trace so far (safety) or the first configuration whose τ* mask covers no
// acceptance set of its ψ state (progress).
func (pc *pruneChecker) walk(v *pruneVariant) bool {
	if pc.gen++; pc.gen == 0 { // wrapped: stale stamps could alias the new walk
		clear(pc.stamp)
		pc.gen = 1
	}
	for _, i := range pc.seenWords {
		pc.seen[i] = 0
	}
	pc.seenWords, pc.work = pc.seenWords[:0], pc.work[:0]
	pc.sccTau, pc.nscc = pc.sccTau[:0], 0
	w := pc.words
	push := func(x, a int32) {
		bit := int(x)*pc.numA + int(a)
		i, m := bit>>6, uint64(1)<<(uint(bit)&63)
		if pc.seen[i]&m == 0 {
			if pc.seen[i] == 0 {
				pc.seenWords = append(pc.seenWords, i)
			}
			pc.seen[i] |= m
			pc.work = append(pc.work, x, a)
		}
	}
	push(0, pc.aInit)
	for len(pc.work) > 0 {
		x, a := pc.work[len(pc.work)-2], pc.work[len(pc.work)-1]
		pc.work = pc.work[:len(pc.work)-2]
		cx := int(pc.closeTau(v, x))
		if !pc.acc.Prog(spec.State(a), pc.sccTau[cx*w:(cx+1)*w]) {
			return false
		}
		for i := v.intOff[x]; i < v.intOff[x+1]; i++ {
			if y := v.intTo[i]; pc.live(v, y, v.intUse[i]) {
				push(y, a)
			}
		}
		for i := v.extOff[x]; i < v.extOff[x+1]; i++ {
			ed := v.ext[i]
			if !pc.live(v, ed.To, v.extUse[i]) {
				continue
			}
			a2 := pc.psi[int(a)*pc.nExt+int(ed.Ev)]
			if a2 < 0 {
				return false
			}
			push(ed.To, a2)
		}
	}
	return true
}

// closeTau returns the SCC of composite root over the live internal edges,
// first completing, by one iterative Tarjan pass from root, every SCC this
// walk reaches from it and has not completed yet. A composite's own mask
// gathers its live external events and the τ* of every finished SCC it
// steps into; SCCs finish in reverse topological order, so when one
// finishes, the OR of its members' masks is its τ*.
func (pc *pruneChecker) closeTau(v *pruneVariant, root int32) int32 {
	if pc.stamp[root] == pc.gen {
		return pc.comp[root]
	}
	w := pc.words
	next := int32(0)
	visit := func(x int32) {
		pc.stamp[x] = pc.gen
		pc.index[x], pc.low[x], pc.comp[x] = next, next, -1
		next++
		own := pc.own[int(x)*w : int(x+1)*w]
		clear(own)
		for i := v.extOff[x]; i < v.extOff[x+1]; i++ {
			if k := v.ext[i].Ev; pc.live(v, v.ext[i].To, v.extUse[i]) {
				own[k>>6] |= 1 << (uint(k) & 63)
			}
		}
		pc.stack = append(pc.stack, x)
		pc.frames = append(pc.frames, tarjanFrame{v: x, pos: v.intOff[x]})
	}
	// joined ORs the τ* of u's finished SCC into x's own mask.
	joined := func(x, u int32) {
		cu := int(pc.comp[u])
		sat.OrInto(pc.own[int(x)*w:int(x+1)*w], pc.sccTau[cu*w:(cu+1)*w])
	}
	visit(root)
	for len(pc.frames) > 0 {
		f := &pc.frames[len(pc.frames)-1]
		x := f.v
		if i := f.pos; i < v.intOff[x+1] {
			f.pos++
			switch u := v.intTo[i]; {
			case !pc.live(v, u, v.intUse[i]):
			case pc.stamp[u] != pc.gen:
				visit(u)
			case pc.comp[u] >= 0:
				joined(x, u)
			case pc.index[u] < pc.low[x]:
				pc.low[x] = pc.index[u] // u is on the stack
			}
			continue
		}
		pc.frames = pc.frames[:len(pc.frames)-1]
		if pc.low[x] == pc.index[x] {
			// x roots an SCC: its members sit on the stack from x up.
			top := len(pc.stack) - 1
			for pc.stack[top] != x {
				top--
			}
			base := len(pc.sccTau)
			for i := 0; i < w; i++ {
				pc.sccTau = append(pc.sccTau, 0)
			}
			mask := pc.sccTau[base:]
			for _, m := range pc.stack[top:] {
				pc.comp[m] = pc.nscc
				sat.OrInto(mask, pc.own[int(m)*w:int(m+1)*w])
			}
			pc.stack = pc.stack[:top]
			pc.nscc++
		}
		if len(pc.frames) > 0 {
			if p := pc.frames[len(pc.frames)-1].v; pc.comp[x] >= 0 {
				joined(p, x)
			} else if pc.low[x] < pc.low[p] {
				pc.low[p] = pc.low[x]
			}
		}
	}
	return pc.comp[root]
}

// pairTable interns 64-bit keys to dense ids by open addressing. A slot
// stores its id plus one, so a zero slot is empty.
type pairTable struct {
	keys  []uint64
	ids   []int32
	n     int
	shift uint // 64 − log2(len(keys))
}

// intern returns k's id, assigning it next if k is new.
func (t *pairTable) intern(k uint64, next int32) (id int32, isNew bool) {
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	// Fibonacci hashing: the top bits of the product mix every key bit.
	mask := uint64(len(t.keys) - 1)
	for i := (k * 0x9E3779B97F4A7C15) >> t.shift; ; i = (i + 1) & mask {
		if t.ids[i] == 0 {
			t.keys[i], t.ids[i] = k, next+1
			t.n++
			return next, true
		}
		if t.keys[i] == k {
			return t.ids[i] - 1, false
		}
	}
}

func (t *pairTable) grow() {
	keys, ids := t.keys, t.ids
	size := max(2*len(keys), 256)
	t.keys, t.ids, t.n = make([]uint64, size), make([]int32, size), 0
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i, id := range ids {
		if id != 0 {
			t.intern(keys[i], id-1)
		}
	}
}
