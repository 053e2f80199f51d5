package core

import (
	"fmt"
	"math/bits"
	"sync"

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
// the gone states (the removed one and those it left unreachable) and the
// removed external edges.
//
// The current converter is the input minus everything filtered, so B‖C′ is
// the part of the stored composite reachable from ⟨b₀, c₀⟩ without entering
// a composite whose converter state is filtered or taking a move that uses
// a filtered converter edge. The input check (input) walks the (composite,
// ψ_A) configurations of every variant once, with τ* of every composite
// from a Tarjan pass, and keeps both: τ* per composite and the reached
// configurations. A candidate (ok) joins the filters for the length of its
// check, with every converter state it leaves unreachable. A short walk
// (probeLimit) rejects most candidates. Otherwise: removals never add
// traces, so only progress can fail, and only where τ* changes, at the
// reverse τ-closure of the reached composites with a move the candidate
// kills (affect). ok recomputes τ* there and accepts when every kept
// configuration there passes prog, and a full walk decides when one fails.
// apply commits what decided the candidate.
// DESIGN.md §15 shows the verdict equals sat.Satisfies on compose.Many's
// output when A is in normal form.
//
// A checker's storage comes from checkerFree and goes back to it (release)
// unless it has grown past pruneKeepBytes or the list is full.
type pruneChecker struct {
	vars []pruneVariant

	numA  int
	aInit int32
	nExt  int     // |Σ_A|
	psi   []int32 // ψ_A step: psi[a*nExt+e], -1 where A refuses e
	acc   *sat.AcceptanceIndex
	words int // τ-mask stride over Σ_A
	aw    int // configuration words per composite: ⌈|S_A|/64⌉

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

	// The last candidate ok decided, which apply commits: the input states
	// it leaves unreachable (the removed state included), the input id of
	// the edge it removes (-1 for none), and whether an affected-set check
	// failed and a full walk decided on some variant.
	dead     []int32
	edge     int32
	fellBack bool

	checks   int    // checks run, the input's included
	walks    int    // full walks run after an affected-set check failed
	accepted int    // removals applied
	quick    int    // ... of which no fallback walk decided
	applied  func() // test hook: called after each accepted removal

	// Exploration scratch: the pair intern table and each composite's
	// B-state.
	pairs pairTable
	pb    []int32

	// Per-check scratch, sized for the largest composite and reset in
	// O(touched). A composite's Tarjan fields are this pass's when its
	// stamp is gen, and comp[x] indexes sccTau; it is in the affected set
	// when its mark is markGen, and affected lists that set.
	gen         uint32
	stamp       []uint32
	index, low  []int32
	comp, stack []int32
	frames      []tarjanFrame
	own         []uint64 // per composite: its events and finished successors' τ*
	sccTau      []uint64 // τ* mask per SCC
	nscc        int32
	markGen     uint32
	mark        []uint32
	affected    []int32
	work        []int32 // configuration stack, (x, a) pairs
	creach      []bool  // converter states reached by deadSet
	cstack      []int32
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

	// Reverse indexes. The moves into composite y come from
	// rev[revOff[y]:revOff[y+1]] (x for an internal move, ^x for an
	// external one) and take revUse; the composites of input-converter
	// state s are stateComp[stateOff[s]:stateOff[s+1]]; the composites with
	// a move that takes input-converter edge e are
	// edgeComp[edgeOff[e]:edgeOff[e+1]].
	revOff, rev, revUse []int32
	stateOff, stateComp []int32
	edgeOff, edgeComp   []int32

	// What the accepted removals so far leave: τ* of every reached
	// composite, and a superset of the reachable configurations (bit
	// x·aw·64 + a), each of which passes prog against its composite's τ*.
	tau   []uint64
	reach []uint64

	// The last check's decision for apply: the affected composites and
	// their recomputed τ*, or that a walk accepted the candidate.
	aff    []int32
	affTau []uint64
	walked bool

	// The full walk's visited configurations, laid out as reach, and the
	// words of seen it set.
	seen      []uint64
	seenWords []int
}

// removal names what a candidate drops from the current converter: one
// non-initial state with its incident transitions, or one external
// transition (by its index in ExtEdges(from)). Fields not in use are -1.
type removal struct {
	state int32
	from  int32
	edge  int
}

type tarjanFrame struct{ v, pos int32 }

// checkerFree keeps up to pruneKeepCheckers checkers' storage between
// PruneEnvs calls. A checker that has grown past pruneKeepBytes is dropped
// instead, so one large prune does not make later small ones pay to reset
// its tables. Unlike a sync.Pool, which may keep one checker per P and as
// many again across a garbage collection, the list bounds what it holds.
var checkerFree struct {
	sync.Mutex
	list []*pruneChecker
}

// pruneKeepBytes bounds the storage a kept checker holds: every serve
// family's checker (chain(3): 1,344 composites) stays under it, chain(5)'s
// (21,504) does not. pruneKeepCheckers bounds how many are kept; a prune
// that finds the list empty builds its checker from fresh storage.
const (
	pruneKeepBytes    = 1 << 20
	pruneKeepCheckers = 1
)

// getChecker returns a checker from checkerFree, or a new one.
func getChecker() *pruneChecker {
	checkerFree.Lock()
	defer checkerFree.Unlock()
	n := len(checkerFree.list)
	if n == 0 {
		return new(pruneChecker)
	}
	pc := checkerFree.list[n-1]
	checkerFree.list[n-1] = nil
	checkerFree.list = checkerFree.list[:n-1]
	return pc
}

// ReleasePruneStorage drops the checker storage that PruneEnvs keeps
// between calls (at most pruneKeepCheckers checkers of at most 1 MiB each),
// so the garbage collector can reclaim it. The next prune allocates its
// checker afresh.
func ReleasePruneStorage() {
	checkerFree.Lock()
	clear(checkerFree.list)
	checkerFree.list = checkerFree.list[:0]
	checkerFree.Unlock()
}

// resize returns s with length n, reusing its storage when it can hold n.
// The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// newPruneChecker compiles the checker for service a, variants bs and
// converter c. It fails when the checker cannot decide Verify's verdict: A
// is not in normal form, or some Σ(B_i‖C) differs from Σ_A.
func newPruneChecker(a *spec.Spec, bs []Environment, c *spec.Spec) (*pruneChecker, error) {
	n := c.NumStates()
	pc := getChecker()
	pc.vars = pc.vars[:0]
	pc.cInit = int32(c.Init())
	pc.cExt, pc.cIntl, pc.cOrig = make([][]cedge, n), make([][]int32, n), make([]int32, n)
	pc.goneState = make([]bool, n)
	pc.dead, pc.fellBack = pc.dead[:0], false
	pc.checks, pc.walks, pc.accepted, pc.quick = 0, 0, 0, 0
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
	pc.aw = (pc.numA + 63) / 64
	pc.psi = resize(pc.psi, pc.numA*pc.nExt)
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
		if len(pc.vars) < cap(pc.vars) {
			pc.vars = pc.vars[:len(pc.vars)+1]
		} else {
			pc.vars = append(pc.vars, pruneVariant{})
		}
		v := &pc.vars[len(pc.vars)-1]
		pc.explore(v, asDemand(b), bKind, cKind)
		v.index(n, int(edges))
		x := len(v.pc)
		v.tau = resize(v.tau, x*pc.words)
		v.reach = resize(v.reach, x*pc.aw)
		v.seen = resize(v.seen, x*pc.aw) // zero: release cleared it
		most = max(most, x)
	}
	pc.stamp = resize(pc.stamp, most)
	pc.index = resize(pc.index, most)
	pc.low = resize(pc.low, most)
	pc.comp = resize(pc.comp, most)
	pc.mark = resize(pc.mark, most)
	pc.own = resize(pc.own, most*pc.words)
	return pc, nil
}

// release returns pc's storage to checkerFree, or drops it when it holds
// more than pruneKeepBytes or the list is full. pc must not be used
// afterwards.
func (pc *pruneChecker) release() {
	if pc.retained() > pruneKeepBytes {
		return
	}
	for i := range pc.vars[:cap(pc.vars)] {
		v := &pc.vars[:cap(pc.vars)][i]
		for _, w := range v.seenWords {
			v.seen[w] = 0
		}
		v.seenWords = v.seenWords[:0]
	}
	pc.cExt, pc.cIntl, pc.cOrig, pc.goneState, pc.goneEdge = nil, nil, nil, nil, nil
	pc.acc, pc.applied = nil, nil
	checkerFree.Lock()
	if len(checkerFree.list) < pruneKeepCheckers {
		checkerFree.list = append(checkerFree.list, pc)
	}
	checkerFree.Unlock()
}

// retained returns the bytes of storage pc would keep in checkerFree.
func (pc *pruneChecker) retained() int {
	n := 4 * (cap(pc.psi) + cap(pc.pb) + 4*cap(pc.stamp) + cap(pc.stack) + cap(pc.affected) +
		cap(pc.work) + cap(pc.dead) + cap(pc.cstack) + 2*cap(pc.frames))
	n += 8*(cap(pc.own)+cap(pc.sccTau)) + cap(pc.creach) + 12*cap(pc.pairs.ids)
	for _, v := range pc.vars[:cap(pc.vars)] {
		n += 4 * (cap(v.pc) + cap(v.intOff) + cap(v.intTo) + cap(v.intUse) + cap(v.extOff) +
			3*cap(v.ext) + cap(v.extUse) + cap(v.revOff) + cap(v.rev) + cap(v.revUse) +
			cap(v.stateOff) + cap(v.stateComp) + cap(v.edgeOff) + cap(v.edgeComp) + cap(v.aff))
		n += 8 * (cap(v.tau) + cap(v.reach) + cap(v.affTau) + cap(v.seen) + cap(v.seenWords))
	}
	return n
}

// explore interns the reachable states of B‖C in breadth-first order into
// v and records their edges, following the rules of ‖: moves of either side
// on unshared events interleave (external events stay external, internal
// moves stay internal) and shared events synchronize into internal moves.
func (pc *pruneChecker) explore(v *pruneVariant, env demandEnvironment, bKind, cKind []int32) {
	v.pc, v.intTo, v.intUse, v.ext, v.extUse = v.pc[:0], v.intTo[:0], v.intUse[:0], v.ext[:0], v.extUse[:0]
	v.intOff, v.extOff = append(v.intOff[:0], 0), append(v.extOff[:0], 0)
	pc.pairs.reset()
	pc.pb = pc.pb[:0]
	intern := func(b, c int32) int32 {
		id, isNew := pc.pairs.intern(uint64(uint32(b))<<32|uint64(uint32(c)), int32(len(pc.pb)))
		if isNew {
			pc.pb = append(pc.pb, b)
			v.pc = append(v.pc, c)
		}
		return id
	}
	intern(int32(env.Init()), pc.cInit)
	for x := 0; x < len(pc.pb); x++ {
		b, c := pc.pb[x], v.pc[x]
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
}

// index builds v's reverse indexes over its explored moves, for an input
// converter of states states and edges external edges. Each is a counting
// sort: counts go two slots ahead, a prefix sum turns them into bucket
// starts one slot ahead, and placing each item advances its bucket's slot
// to the next bucket's start.
func (v *pruneVariant) index(states, edges int) {
	n := len(v.pc)
	moves := len(v.intTo) + len(v.ext)
	v.revOff = zeroed(v.revOff, n+2)
	v.stateOff = zeroed(v.stateOff, states+2)
	v.edgeOff = zeroed(v.edgeOff, edges+2)
	used := 0
	for i, y := range v.intTo {
		v.revOff[y+2]++
		if u := v.intUse[i]; u >= 0 {
			v.edgeOff[u+2]++
			used++
		}
	}
	for i, ed := range v.ext {
		v.revOff[ed.To+2]++
		if u := v.extUse[i]; u >= 0 {
			v.edgeOff[u+2]++
			used++
		}
	}
	for _, c := range v.pc {
		v.stateOff[c+2]++
	}
	prefix(v.revOff)
	prefix(v.stateOff)
	prefix(v.edgeOff)
	v.rev, v.revUse = resize(v.rev, moves), resize(v.revUse, moves)
	v.stateComp, v.edgeComp = resize(v.stateComp, n), resize(v.edgeComp, used)
	for x := int32(0); x < int32(n); x++ {
		for i := v.intOff[x]; i < v.intOff[x+1]; i++ {
			slot := &v.revOff[v.intTo[i]+1]
			v.rev[*slot], v.revUse[*slot] = x, v.intUse[i]
			*slot++
			if u := v.intUse[i]; u >= 0 {
				v.edgeComp[v.edgeOff[u+1]] = x
				v.edgeOff[u+1]++
			}
		}
		for i := v.extOff[x]; i < v.extOff[x+1]; i++ {
			slot := &v.revOff[v.ext[i].To+1]
			v.rev[*slot], v.revUse[*slot] = ^x, v.extUse[i]
			*slot++
			if u := v.extUse[i]; u >= 0 {
				v.edgeComp[v.edgeOff[u+1]] = x
				v.edgeOff[u+1]++
			}
		}
		slot := &v.stateOff[v.pc[x]+1]
		v.stateComp[*slot] = x
		*slot++
	}
	v.revOff, v.stateOff, v.edgeOff = v.revOff[:n+1], v.stateOff[:states+1], v.edgeOff[:edges+1]
}

// zeroed returns s with length n and every element zero, reusing its
// storage when it can hold n.
func zeroed(s []int32, n int) []int32 {
	s = resize(s, n)
	clear(s)
	return s
}

// prefix turns counts into running sums in place.
func prefix(s []int32) {
	for i := 1; i < len(s); i++ {
		s[i] += s[i-1]
	}
}

// probeLimit is how many configurations a candidate's first walk visits
// before the checker turns to the affected set. A rejected candidate
// usually fails within a few dozen configurations of the initial one (at
// most 53 on chain(3) and 58 on ring(3)), where computing its affected set
// would cost hundreds of composites; an accepted one walks the whole
// composite, which the affected set spares.
const probeLimit = 64

// input runs the input check: it reports whether every variant composed
// with the input converter satisfies A, and keeps what its walk found for
// ok to decide candidates from.
func (pc *pruneChecker) input() bool {
	pc.checks++
	for i := range pc.vars {
		v := &pc.vars[i]
		if holds, _ := pc.walk(v, -1); !holds {
			return false
		}
		pc.keepWalk(v)
	}
	return true
}

// ok reports whether every variant composed with the current converter
// minus rm satisfies A. It changes none of the state later checks read;
// what it found waits for apply (commit).
func (pc *pruneChecker) ok(rm removal) bool {
	pc.checks++
	pc.deadSet(rm)
	pc.filter(true)
	pc.fellBack = false
	holds := true
	for i := range pc.vars {
		if !pc.decide(&pc.vars[i]) {
			holds = false
			break
		}
	}
	pc.filter(false)
	return holds
}

// filter sets the gone marks of the last candidate's dead states and
// removed edge to on.
func (pc *pruneChecker) filter(on bool) {
	for _, s := range pc.dead {
		pc.goneState[s] = on
	}
	if pc.edge >= 0 {
		pc.goneEdge[pc.edge] = on
	}
}

// deadSet records in pc.dead the input-converter states that the current
// converter minus rm does not reach — rm's state, if any, and every state
// only it led to — and in pc.edge the input-converter id of rm's edge, or
// -1.
func (pc *pruneChecker) deadSet(rm removal) {
	edge := int32(-1)
	if rm.from >= 0 {
		edge = pc.cExt[rm.from][rm.edge].ID
	}
	reach := resize(pc.creach, len(pc.cExt))
	clear(reach)
	stack := pc.cstack[:0]
	visit := func(t int32) {
		if t != rm.state && !reach[t] {
			reach[t] = true
			stack = append(stack, t)
		}
	}
	visit(pc.cInit)
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ed := range pc.cExt[st] {
			if ed.ID != edge {
				visit(ed.To)
			}
		}
		for _, t := range pc.cIntl[st] {
			visit(t)
		}
	}
	pc.dead = pc.dead[:0]
	for st, r := range reach {
		if !r {
			pc.dead = append(pc.dead, pc.cOrig[st])
		}
	}
	pc.creach, pc.cstack, pc.edge = reach, stack, edge
}

// decide reports whether variant v composed with the candidate converter
// (the filters as ok set them) satisfies A. A walk limited to probeLimit
// configurations decides it when it fails or ends within the limit.
// Otherwise decide recomputes τ* on the affected set and accepts when every
// kept configuration there passes prog: the configurations the candidate
// can reach are among the kept ones, and outside the affected set τ* is
// unchanged, so they pass too. When one fails it may be unreachable now, so
// a full walk decides.
func (pc *pruneChecker) decide(v *pruneVariant) bool {
	v.aff, v.affTau, v.walked = v.aff[:0], v.affTau[:0], false
	if holds, done := pc.walk(v, probeLimit); done {
		v.walked = holds
		return holds
	}
	pc.affect(v)
	pc.nextGen()
	for _, x := range pc.affected {
		pc.closeTau(v, x, true)
	}
	w := pc.words
	v.aff = append(v.aff, pc.affected...)
	passes := true
	for _, x := range pc.affected {
		cx := int(pc.comp[x])
		mask := pc.sccTau[cx*w : (cx+1)*w]
		v.affTau = append(v.affTau, mask...)
		for i, word := range v.reach[int(x)*pc.aw : int(x+1)*pc.aw] {
			for ; passes && word != 0; word &= word - 1 {
				a := i<<6 | bits.TrailingZeros64(word)
				passes = pc.acc.Prog(spec.State(a), mask)
			}
		}
	}
	if passes {
		return true
	}
	pc.walks++
	pc.fellBack = true
	holds, _ := pc.walk(v, -1)
	v.walked = holds
	return holds
}

// affect collects in pc.affected (and marks) the composites of v whose τ*
// the candidate can change: every reached live composite with a move the
// candidate kills — into a dead composite, or taking the removed edge —
// and every reached live composite that reaches one of those by live
// internal moves.
func (pc *pruneChecker) affect(v *pruneVariant) {
	if pc.markGen++; pc.markGen == 0 { // wrapped: stale marks could alias
		clear(pc.mark)
		pc.markGen = 1
	}
	pc.affected = pc.affected[:0]
	for _, s := range pc.dead {
		for _, y := range v.stateComp[v.stateOff[s]:v.stateOff[s+1]] {
			for _, x := range v.rev[v.revOff[y]:v.revOff[y+1]] {
				pc.addAffected(v, max(x, ^x))
			}
		}
	}
	if e := pc.edge; e >= 0 {
		for _, x := range v.edgeComp[v.edgeOff[e]:v.edgeOff[e+1]] {
			pc.addAffected(v, x)
		}
	}
	for i := 0; i < len(pc.affected); i++ {
		y := pc.affected[i]
		for j := v.revOff[y]; j < v.revOff[y+1]; j++ {
			if x, use := v.rev[j], v.revUse[j]; x >= 0 && (use < 0 || !pc.goneEdge[use]) {
				pc.addAffected(v, x)
			}
		}
	}
}

// addAffected adds composite x to the affected set when it is live, has a
// kept configuration and is not in the set yet.
func (pc *pruneChecker) addAffected(v *pruneVariant, x int32) {
	if pc.mark[x] == pc.markGen || pc.goneState[v.pc[x]] {
		return
	}
	for _, word := range v.reach[int(x)*pc.aw : int(x+1)*pc.aw] {
		if word != 0 {
			pc.mark[x] = pc.markGen
			pc.affected = append(pc.affected, x)
			return
		}
	}
}

// commit is apply's half of the last ok, which accepted: its dead states
// join the filters, and every variant keeps what decided it. The affected
// composites take their recomputed τ* and the dead composites lose their
// configurations; a variant a walk accepted keeps that walk's τ* and
// configurations instead, found again by walking under the new filters.
func (pc *pruneChecker) commit() {
	pc.filter(true)
	pc.accepted++
	if !pc.fellBack {
		pc.quick++
	}
	w := pc.words
	for i := range pc.vars {
		v := &pc.vars[i]
		if v.walked {
			pc.walk(v, -1)
			pc.keepWalk(v)
			continue
		}
		for j, x := range v.aff {
			copy(v.tau[int(x)*w:int(x+1)*w], v.affTau[j*w:(j+1)*w])
		}
		for _, s := range pc.dead {
			for _, y := range v.stateComp[v.stateOff[s]:v.stateOff[s+1]] {
				clear(v.reach[int(y)*pc.aw : int(y+1)*pc.aw])
			}
		}
	}
}

// keepWalk makes the last walk over v, which passed every configuration
// it reached, v's kept state: those configurations, and τ* of their
// composites, which the walk's Tarjan passes computed.
func (pc *pruneChecker) keepWalk(v *pruneVariant) {
	clear(v.reach)
	w := pc.words
	for _, i := range v.seenWords {
		v.reach[i] = v.seen[i]
		x := i / pc.aw
		cx := int(pc.comp[x])
		copy(v.tau[x*w:(x+1)*w], pc.sccTau[cx*w:(cx+1)*w])
	}
}

// nextGen starts a new Tarjan generation: no composite's τ* counts as
// computed until closeTau stamps it.
func (pc *pruneChecker) nextGen() {
	if pc.gen++; pc.gen == 0 { // wrapped: stale stamps could alias the new pass
		clear(pc.stamp)
		pc.gen = 1
	}
	pc.sccTau, pc.nscc = pc.sccTau[:0], 0
}

// live reports whether the move into composite y, taking input-converter
// edge use (-1 for none), survives the filters.
func (pc *pruneChecker) live(v *pruneVariant, y, use int32) bool {
	return !pc.goneState[v.pc[y]] && (use < 0 || !pc.goneEdge[use])
}

// walk searches the (composite, ψ_A) configurations of B‖C′ reachable from
// the initial one, into v.seen, taking τ* of each composite it reaches from
// a Tarjan pass over the live internal edges rooted there. It fails at the
// first external event A refuses after the trace so far (safety) or the
// first configuration whose τ* mask covers no acceptance set of its ψ
// state (progress). It gives up undecided (done false) before visiting a
// configuration past the first limit; a negative limit sets none.
func (pc *pruneChecker) walk(v *pruneVariant, limit int) (holds, done bool) {
	pc.nextGen()
	for _, i := range v.seenWords {
		v.seen[i] = 0
	}
	v.seenWords, pc.work = v.seenWords[:0], pc.work[:0]
	w := pc.words
	push := func(x, a int32) {
		i, m := int(x)*pc.aw+int(a>>6), uint64(1)<<(uint(a)&63)
		if v.seen[i]&m == 0 {
			if v.seen[i] == 0 {
				v.seenWords = append(v.seenWords, i)
			}
			v.seen[i] |= m
			pc.work = append(pc.work, x, a)
		}
	}
	push(0, pc.aInit)
	for ; len(pc.work) > 0; limit-- {
		if limit == 0 {
			return true, false
		}
		x, a := pc.work[len(pc.work)-2], pc.work[len(pc.work)-1]
		pc.work = pc.work[:len(pc.work)-2]
		cx := int(pc.closeTau(v, x, false))
		if !pc.acc.Prog(spec.State(a), pc.sccTau[cx*w:(cx+1)*w]) {
			return false, true
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
				return false, true
			}
			push(ed.To, a2)
		}
	}
	return true, true
}

// closeTau returns the SCC of composite root over the live internal edges,
// first completing, by one iterative Tarjan pass from root, every SCC this
// generation reaches from it and has not completed yet (earlier passes'
// SCCs are closed under reachability, so they are final). A composite's own
// mask gathers its live external events and the τ* of every finished SCC
// it steps into; SCCs finish in reverse topological order, so when one
// finishes, the OR of its members' masks is its τ*. With partial, the pass
// stays inside the affected set: a successor outside it contributes its
// kept τ*, which the candidate does not change.
func (pc *pruneChecker) closeTau(v *pruneVariant, root int32, partial bool) int32 {
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
			case partial && pc.mark[u] != pc.markGen:
				sat.OrInto(pc.own[int(x)*w:int(x+1)*w], v.tau[int(u)*w:int(u+1)*w])
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

// reset empties t, keeping its slots.
func (t *pairTable) reset() {
	if t.n > 0 {
		clear(t.ids)
		t.n = 0
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
