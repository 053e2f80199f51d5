package core

import (
	"context"
	"fmt"
	"slices"

	"protoquot/internal/compose"
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
	if !pc.input() {
		return false, nil, nil, nil
	}
	states, edges = pc.verdicts()
	return true, states, edges, nil
}

// verdicts returns the checker's verdict on every candidate removal from
// its current converter, indexed as PruneCheckVerdicts indexes them. It
// leaves the check and walk counters as it found them.
func (pc *pruneChecker) verdicts() (states []bool, edges [][]bool) {
	checks, walks := pc.checks, pc.walks
	states = make([]bool, len(pc.cExt))
	edges = make([][]bool, len(pc.cExt))
	for st := range states {
		if int32(st) != pc.cInit {
			states[st] = pc.ok(removal{state: int32(st), from: -1, edge: -1})
		}
		edges[st] = make([]bool, len(pc.cExt[st]))
		for ei := range edges[st] {
			edges[st][ei] = pc.ok(removal{state: -1, from: int32(st), edge: ei})
		}
	}
	pc.checks, pc.walks = checks, walks
	return states, edges
}

// PruneReplay prunes c as PruneEnvs does and returns the result with the
// number of checks the greedy loop ran. After each accepted removal it
// calls visit, when non-nil, with the converter as it then stands and the
// checker's verdicts on removing each of its states and external
// transitions (indexed as PruneCheckVerdicts indexes them), which the
// checker decides with every accepted removal so far in its filters. With
// visit it also requires the filtered composite of every variant to match a
// fresh exploration of the current converter in its numbers of reachable
// composites, internal moves and external moves, and fails if not.
func PruneReplay(a *spec.Spec, bs []Environment, c *spec.Spec,
	visit func(cur *spec.Spec, states []bool, edges [][]bool)) (pruned *spec.Spec, checks int, err error) {
	pc, err := newPruneChecker(a, bs, c)
	if err != nil {
		return nil, 0, err
	}
	if !pc.input() {
		return nil, 0, fmt.Errorf("prune checker rejects the input converter")
	}
	var mismatch error
	if visit != nil {
		pc.applied = func() {
			cur, err := pc.converter(c)
			if err != nil {
				panic(err)
			}
			fresh, err := newPruneChecker(a, bs, cur)
			if err != nil {
				panic(err)
			}
			for i := range pc.vars {
				got, want := pc.footprint(&pc.vars[i]), fresh.footprint(&fresh.vars[i])
				if got != want && mismatch == nil {
					mismatch = fmt.Errorf("variant %d: filtered composite reaches %v (composites, internal, external), a fresh one %v", i, got, want)
				}
			}
			states, edges := pc.verdicts()
			visit(cur, states, edges)
		}
	}
	pruned, err = pc.prune(c)
	if err == nil {
		err = mismatch
	}
	return pruned, pc.checks, err
}

// footprint counts the composites, internal moves and external moves of
// v that the filters leave reachable from the initial composite.
func (pc *pruneChecker) footprint(v *pruneVariant) [3]int {
	var n [3]int
	seen := make([]bool, len(v.pc))
	seen[0] = true
	stack := []int32{0}
	follow := func(y, use int32, kind int) {
		if pc.live(v, y, use) {
			n[kind]++
			if !seen[y] {
				seen[y] = true
				stack = append(stack, y)
			}
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n[0]++
		for i := v.intOff[x]; i < v.intOff[x+1]; i++ {
			follow(v.intTo[i], v.intUse[i], 1)
		}
		for i := v.extOff[x]; i < v.extOff[x+1]; i++ {
			follow(v.ext[i].To, v.extUse[i], 2)
		}
	}
	return n
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
	bld.Init(stateName(0))
	for ci := range d.states {
		if !d.alive[ci] {
			continue
		}
		name := stateName(int32(ci))
		bld.State(name)
		for ei, t := range d.states[ci].succ {
			if t >= 0 && d.alive[t] {
				bld.Ext(name, d.intl[ei], stateName(t))
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
// tables — whose pbs are those the first sweep sweeps — and checks two
// things the sweep relies on. The compiled edge table must equal the
// environment's rows: every pb's τ-successors, and exactly its external
// edges on Int events, with their Int index and target, in row order, as
// absolute pbs (none for a demand-driven state that was never expanded).
// And the merge walk's invariant must hold: for every pb and each of its
// τ-successors t, pb's columns are a subset of t's. It returns the number
// of (pb, t) pairs checked, 0 when the safety phase proves that no
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
	if len(pt.tauOff) != int(pt.totalB)+1 || len(pt.intOff) != int(pt.totalB)+1 ||
		int(pt.tauOff[pt.totalB]) != len(pt.tau) || int(pt.intOff[pt.totalB]) != len(pt.ints) {
		return 0, fmt.Errorf("edge table is not sized to its %d pbs", pt.totalB)
	}
	for pb := int32(0); pb < pt.totalB; pb++ {
		// The expected rows come from the environment's own surface, by
		// event name, never from the deriver's row adapter: a spec through
		// ExtEdges/IntEdges, and a demand-driven composition through
		// PeekRows, which reads without expanding.
		v := d.variantOf(pb)
		boff := d.boff[v]
		st := spec.State(pb - boff)
		var wantTau []int32
		var wantInts []intEdge
		addInt := func(ev spec.Event, to int32) {
			if ii := slices.Index(d.intl, ev); ii >= 0 {
				wantInts = append(wantInts, intEdge{ii: int32(ii), to: boff + to})
			}
		}
		switch b := d.bs[v].(type) {
		case *spec.Spec:
			for _, t := range b.IntEdges(st) {
				wantTau = append(wantTau, boff+int32(t))
			}
			for _, ed := range b.ExtEdges(st) {
				addInt(ed.Event, int32(ed.To))
			}
		case *compose.Lazy:
			ext, intl, _ := b.PeekRows(st)
			for _, t := range intl {
				wantTau = append(wantTau, boff+t)
			}
			for _, ed := range ext {
				addInt(b.Alphabet()[ed.Ev], ed.To)
			}
		default:
			return pairs, fmt.Errorf("variant %d: no reference rows for environment type %T", v, b)
		}
		if got := pt.tauOf(pb); !slices.Equal(got, wantTau) {
			return pairs, fmt.Errorf("pb %d: edge table τ-successors %v, environment rows give %v", pb, got, wantTau)
		}
		if got := pt.intsOf(pb); !slices.Equal(got, wantInts) {
			return pairs, fmt.Errorf("pb %d: edge table Int edges %v, environment rows give %v", pb, got, wantInts)
		}
		cols := pt.pbCol[pt.pbOff[pb]:pt.pbOff[pb+1]]
		if len(cols) == 0 {
			continue
		}
		for _, q := range pt.tauOf(pb) {
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

// CheckClosureReference derives like DeriveEnvsContext and, as the safety
// phase ends (before the progress phase drops transitions), recomputes h.ε
// and every φ(J, e) with referenceClosure, the per-pair walk, comparing
// each set and ok.J verdict with the successor the phase interned. A
// nonexistence proof is a result, not an error: the returned error is a
// precondition failure or the first disagreement. When h.ε fails, the
// reference must fail it too.
func CheckClosureReference(a *spec.Spec, bs []Environment, opts Options) (*Result, error) {
	d, err := newDeriver(context.Background(), a, bs, opts)
	if err != nil {
		return nil, err
	}
	var mismatch error
	checked := false
	trace := d.opts.Trace
	d.opts.Trace = func(ev TraceEvent) {
		if ev.Phase == "safety" && ev.Detail != "" { // the phase's summary
			checked, mismatch = true, d.checkClosures()
		}
		if trace != nil {
			trace(ev)
		}
	}
	res, err := d.run()
	if _, nq := err.(*NoQuotientError); err != nil && !nq {
		return nil, err
	}
	if !checked {
		var rs refScratch
		ok := d.referenceClosure(&rs, d.initSeeds())
		rs.reset()
		if ok {
			return res, fmt.Errorf("h.ε: the safety phase fails ok.J, the reference holds it")
		}
	}
	return res, mismatch
}

// checkClosures compares every closure of a finished safety phase with
// referenceClosure: h.ε with state 0's set, and each φ(J, e) with J's
// successor on e.
func (d *deriver) checkClosures() error {
	var rs refScratch
	if ok := d.referenceClosure(&rs, d.initSeeds()); !ok || !rs.equal(d.table.get(0)) {
		rs.reset()
		return fmt.Errorf("h.ε: reference ok=%v, or its set differs from the interned one", ok)
	}
	numA := int32(d.numA)
	byEvent := make([][]int32, len(d.intl))
	for si := range d.states {
		for i := range byEvent {
			byEvent[i] = byEvent[i][:0]
		}
		d.table.get(int32(si)).forEach(func(p int32) {
			a := p % numA
			ext, _, off := d.rowsPacked(p / numA)
			for _, ed := range ext {
				if ii := d.intlIndex[ed.Ev]; ii >= 0 {
					byEvent[ii] = append(byEvent[ii], (off+ed.To)*numA+a)
				}
			}
		})
		for ei, seeds := range byEvent {
			got := d.states[si].succ[ei]
			if len(seeds) == 0 {
				if (got < 0) != d.opts.OmitVacuous || got >= 0 && len(d.table.get(got)) != 0 {
					return fmt.Errorf("state %d, %s: vacuous successor interned as %d", si, d.intl[ei], got)
				}
				continue
			}
			ok := d.referenceClosure(&rs, seeds)
			switch {
			case !ok && got >= 0:
				rs.reset()
				return fmt.Errorf("state %d, %s: reference ok.J fails, interned successor %d", si, d.intl[ei], got)
			case !ok:
				rs.reset()
			case got < 0:
				rs.reset()
				return fmt.Errorf("state %d, %s: reference ok.J holds, no successor interned", si, d.intl[ei])
			case !rs.equal(d.table.get(got)):
				return fmt.Errorf("state %d, %s: reference set differs from interned successor %d", si, d.intl[ei], got)
			}
		}
	}
	return nil
}

// refScratch is referenceClosure's working set: dense is a bit vector over
// the pair domain, n the pairs set in it, and dirty the words to clear.
type refScratch struct {
	stack []int32
	dense []uint64
	dirty []int32
	n     int
}

// setBit records pair p, growing the dense array on demand (the pair domain
// grows during a closure when the environment is demand-driven). It reports
// whether p was newly set.
func (rs *refScratch) setBit(p int32) bool {
	w := int(p >> 6)
	if w >= len(rs.dense) {
		grown := make([]uint64, max(2*len(rs.dense), w+64))
		copy(grown, rs.dense)
		rs.dense = grown
	}
	bit := uint64(1) << (uint(p) & 63)
	old := rs.dense[w]
	if old&bit != 0 {
		return false
	}
	if old == 0 {
		rs.dirty = append(rs.dirty, int32(w))
	}
	rs.dense[w] = old | bit
	rs.n++
	return true
}

// equal reports whether the closure in rs is exactly ps, and resets rs.
func (rs *refScratch) equal(ps pairset) bool {
	eq := ps.count() == rs.n
	for i := 0; eq && i < len(ps); i += 2 {
		w := int(ps[i])
		eq = w < len(rs.dense) && rs.dense[w] == ps[i+1]
	}
	rs.reset()
	return eq
}

func (rs *refScratch) reset() {
	for _, w := range rs.dirty {
		rs.dense[w] = 0
	}
	rs.dirty, rs.n = rs.dirty[:0], 0
}

// referenceClosure is the per-pair closure the safety phase ran on services
// of more than 64 states before the mask closure served every width, kept
// as its oracle: a DFS over single pairs, one row scan per pair, that walks
// the whole closure into rs (no abort at the first violation) and returns
// the ok.J verdict.
func (d *deriver) referenceClosure(rs *refScratch, seeds []int32) bool {
	numA := int32(d.numA)
	ok := true
	rs.stack = rs.stack[:0]
	for _, p := range seeds {
		if rs.setBit(p) {
			rs.stack = append(rs.stack, p)
		}
	}
	for len(rs.stack) > 0 {
		p := rs.stack[len(rs.stack)-1]
		rs.stack = rs.stack[:len(rs.stack)-1]
		a := p % numA
		ext, ints, off := d.rowsPacked(p / numA)
		for _, t := range ints {
			if q := (off+t)*numA + a; rs.setBit(q) {
				rs.stack = append(rs.stack, q)
			}
		}
		for _, ed := range ext {
			if !d.isExt[ed.Ev] {
				continue // Int event: needs the converter, not closure
			}
			a2 := d.psi[int(a)*d.nev+int(ed.Ev)]
			if a2 < 0 {
				ok = false
				continue
			}
			if q := (off+ed.To)*numA + a2; rs.setBit(q) {
				rs.stack = append(rs.stack, q)
			}
		}
	}
	return ok
}

// CheckSweepsReference derives like DeriveEnvsContext and, after every
// progress sweep, recomputes every live column's masks from scratch with
// referenceMasks, which shares nothing with the sweep, and requires
// the sweep's memo to hold byte-identical masks and its removals to be
// exactly the live states a scan of every column with the reference masks
// flags. It returns the result, the number of sweeps after the first that
// it checked, and the first disagreement. A nonexistence proof is a
// result, not an error.
func CheckSweepsReference(a *spec.Spec, bs []Environment, opts Options) (res *Result, later int, err error) {
	d, err := newDeriver(context.Background(), a, bs, opts)
	if err != nil {
		return nil, 0, err
	}
	var mismatch error
	var want, got []string // the reference's and the sweep's removals
	settle := func() {
		if mismatch == nil && !slices.Equal(want, got) {
			mismatch = fmt.Errorf("sweep removed %v, the full recompute flags %v", got, want)
		}
		want, got = nil, nil
	}
	trace := d.opts.Trace
	d.opts.Trace = func(ev TraceEvent) {
		switch {
		case ev.Phase != "progress":
		case ev.Detail != "": // a sweep's summary, before its removals apply
			settle()
			if ev.Iteration > 1 {
				later++
			}
			var m error
			want, m = d.checkSweep()
			if mismatch == nil && m != nil {
				mismatch = fmt.Errorf("iteration %d: %w", ev.Iteration, m)
			}
		case ev.State != "":
			got = append(got, ev.State)
		}
		if trace != nil {
			trace(ev)
		}
	}
	res, err = d.run()
	if _, nq := err.(*NoQuotientError); err != nil && !nq {
		return nil, later, err
	}
	settle()
	return res, later, mismatch
}

// checkSweep compares the memo of every live column with referenceMasks
// and returns the names of the live states that fail prog under the
// reference masks, ascending.
func (d *deriver) checkSweep() (flagged []string, err error) {
	pt := d.prog
	w := pt.words
	ref := d.referenceMasks()
	numA := int32(d.numA)
	for ci := range d.states {
		if !d.alive[ci] {
			continue
		}
		fails := false
		for _, pb := range pt.combos(int32(ci)) {
			k := pt.pos(pb, int32(ci))
			if got, want := pt.maskAt(k), ref[int(k)*w:int(k)*w+w]; !slices.Equal(got, want) {
				return nil, fmt.Errorf("column %d, pb %d: memo mask %x, full recompute %x", ci, pb, got, want)
			}
		}
		d.table.get(int32(ci)).forEach(func(p int32) {
			k := pt.pos(p/numA, int32(ci))
			if !pt.accIx.Prog(spec.State(p%numA), ref[int(k)*w:int(k)*w+w]) {
				fails = true
			}
		})
		if fails {
			flagged = append(flagged, stateName(int32(ci)))
		}
	}
	return flagged, nil
}

// referenceMasks recomputes the ready mask of every slot of every live
// column by Kleene iteration from ⊥ over the current converter: each round
// sets every slot to bready[pb] plus its τ-successors' masks in its column
// and its Int-successors' masks in the live column the transition leads
// to, until a round changes nothing. It shares no condensation, order or
// change tracking with the sweep, and returns masks laid out like the
// memo.
func (d *deriver) referenceMasks() []uint64 {
	pt := d.prog
	w := pt.words
	ref := make([]uint64, len(pt.mask))
	acc := make([]uint64, w)
	for moved := true; moved; {
		moved = false
		for ci := len(d.states) - 1; ci >= 0; ci-- {
			if !d.alive[ci] {
				continue
			}
			c := int32(ci)
			for _, pb := range pt.combos(c) {
				copy(acc, pt.bready[int(pb)*w:int(pb)*w+w])
				for _, q := range pt.tauOf(pb) {
					k := pt.pos(q, c)
					for i := range acc {
						acc[i] |= ref[int(k)*w+i]
					}
				}
				for _, ie := range pt.intsOf(pb) {
					t := d.states[c].succ[ie.ii]
					if t < 0 || !d.alive[t] {
						continue
					}
					if k := pt.pos(ie.to, t); k >= 0 {
						for i := range acc {
							acc[i] |= ref[int(k)*w+i]
						}
					}
				}
				k := pt.pos(pb, c)
				if dst := ref[int(k)*w : int(k)*w+w]; !slices.Equal(acc, dst) {
					copy(dst, acc)
					moved = true
				}
			}
		}
	}
	return ref
}

// ReleasedCheckerBytes builds the prune checker for a, bs and c, runs its
// input check and releases it. It returns the bytes the checker held.
func ReleasedCheckerBytes(a *spec.Spec, bs []Environment, c *spec.Spec) (int, error) {
	pc, err := newPruneChecker(a, bs, c)
	if err != nil {
		return 0, err
	}
	if !pc.input() {
		return 0, fmt.Errorf("prune checker rejects the input converter")
	}
	n := pc.retained()
	pc.release()
	return n, nil
}

// KeptCheckers returns how many checkers checkerFree holds, the most bytes
// any of them holds, and the list's bounds on both.
func KeptCheckers() (n, most, maxCheckers, maxBytes int) {
	checkerFree.Lock()
	defer checkerFree.Unlock()
	for _, pc := range checkerFree.list {
		most = max(most, pc.retained())
	}
	return len(checkerFree.list), most, pruneKeepCheckers, pruneKeepBytes
}

// PruneKeptState prunes c as PruneEnvs does and, after each accepted
// removal, checks what the checker kept for later candidates against a
// from-scratch computation under the same filters: every kept composite's
// τ* must equal a fresh Tarjan pass's, and a full walk
// must reach only kept configurations. It returns how many removals it
// checked after.
func PruneKeptState(a *spec.Spec, bs []Environment, c *spec.Spec) (steps int, err error) {
	pc, err := newPruneChecker(a, bs, c)
	if err != nil {
		return 0, err
	}
	if !pc.input() {
		return 0, fmt.Errorf("prune checker rejects the input converter")
	}
	var bad error
	pc.applied = func() {
		steps++
		w := pc.words
		for i := range pc.vars {
			v := &pc.vars[i]
			pc.nextGen()
			for x := range v.pc {
				if !slices.ContainsFunc(v.reach[x*pc.aw:(x+1)*pc.aw], func(word uint64) bool { return word != 0 }) {
					continue
				}
				cx := int(pc.closeTau(v, int32(x), false))
				if got, want := v.tau[x*w:(x+1)*w], pc.sccTau[cx*w:(cx+1)*w]; !slices.Equal(got, want) && bad == nil {
					bad = fmt.Errorf("after removal %d, variant %d: composite %d keeps τ* %x, a fresh pass computes %x", steps, i, x, got, want)
				}
			}
			pc.walk(v, -1)
			for _, j := range v.seenWords {
				if v.seen[j]&^v.reach[j] != 0 && bad == nil {
					bad = fmt.Errorf("after removal %d, variant %d: a walk reaches configurations of composite %d that are not kept", steps, i, j/pc.aw)
				}
			}
		}
	}
	if _, err := pc.prune(c); err != nil {
		return steps, err
	}
	return steps, bad
}
