// Batched, optionally parallel safety-phase expansion.
//
// The seed engine's safety loop was a FIFO worklist: process state i,
// append its newly discovered successors, advance. Processing states in
// index order with append-on-discovery is exactly breadth-first search, so
// the same construction can run level by level — and, within a level, merge
// batch by merge batch: a fixed-size slice of the frontier has its φ(J, e)
// results computed (this file — the concurrent part), then mergeBatch
// (core.go) interns the results on one goroutine, assigning canonical IDs in
// (state index, Int-event index) order. Discovery order, and therefore state
// numbering, transition structure, and every downstream artifact, match the
// sequential worklist bit for bit regardless of worker count or batch size.
//
// Workers share the deriver read-only — the spec tables are immutable, and
// the intern table is read-only during expansion (the merge, the sole
// writer, runs between batches) — with one exception: under a
// demand-driven environment, rowsPacked may expand a composite state,
// which serializes inside compose.Lazy. This is the fusion the
// demand-driven path is built around: the safety phase's own frontier walk
// is what drives environment exploration, and only the slice of the product
// the derivation actually touches is ever built.
//
// Two closure engines share the walk structure:
//
//   - The mask closure (numA ≤ 64, the common case — service specs are
//     small even when the environment is huge) keeps one uint64 A-state
//     mask per packed-b state. One row scan then serves all A-states
//     reached at that b-state: internal B-moves OR the delta mask across,
//     joint external moves map it through the precomputed ψ bit table, and
//     ok.J violations are one AND against a per-event "ψ undefined" mask.
//     Compared to the per-pair walk this divides row traffic — the
//     dominant cost at the frontier, where closures span ~10⁶ pairs — by
//     up to numA.
//   - The scalar closure (numA > 64, or forced by tests) is the per-pair
//     DFS of the earlier engines.
//
// Both produce the same canonical set — the closure is a unique least
// fixpoint and the violation verdict is order-independent — which the
// differential suites check by forcing the scalar path.
//
// Each worker owns a scratch holding the walk state and a per-batch output
// arena (intern.go): a closure result costs arena space, not a heap
// allocation, and the arena rewinds after every merge once the surviving
// sets have been copied into intern storage.
package core

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"protoquot/internal/spec"
)

// Safety-phase tuning knobs. Variables, not constants, so the differential
// and regression tests can force the interesting configurations; both are
// load-bearing for determinism only in that they must not change
// mid-derivation.
var (
	// safetyMergeBatch is the number of frontier states expanded between
	// merges. It bounds how far past Options.MaxStates a derivation can run
	// before the per-batch check fires (by batch × |Int| states) and how
	// much transient closure output the worker arenas hold at once. It is a
	// constant of the engine, never derived from the worker count: batch
	// boundaries are observable through MaxStates abort points, and those
	// must be bit-identical at every worker count.
	safetyMergeBatch = 4096
	// maskClosureEnabled gates the word-parallel closure engine (used only
	// when numA ≤ 64 regardless).
	maskClosureEnabled = true
)

// phiResult is the outcome of one φ(J, e) computation. A nil set with
// ok=true is the vacuous successor (no seed pairs: B cannot match any trace
// reaching it). ok=false means ok.J failed — the transition is omitted. set
// points into the producing worker's arena and is valid only until that
// arena resets after the merge.
type phiResult struct {
	set  pairset
	hash uint64 // set.hash(); emptyPairsetHash for the vacuous result
	ok   bool
}

// scratch is the per-worker reusable working set.
//
// dense/dirty implement the scalar closure: dense is a bit vector over the
// pair domain, only ever cleared word-by-word via the dirty list, so a
// closure touching k pairs costs O(k) regardless of how large the domain is
// (or grows to, under a demand-driven environment). amask/adone/touched are
// the mask closure's equivalent, indexed by packed-b state: accumulated and
// processed A-state masks plus a presence bitmap for O(touched) extraction
// and reset. arena backs every closure result the worker builds during a
// batch; it rewinds after each merge.
//
// There is deliberately no per-worker row cache here. compose.Lazy's read
// path is a single atomic load against arena-backed rows that never move,
// so caching slice headers per worker bought nothing but a doubling-copy
// churn that dominated large-derivation profiles.
type scratch struct {
	stack []int32   // scalar closure DFS stack (pair indices)
	seeds [][]int32 // scalar φ seed pairs, bucketed by Int-event index
	dense []uint64  // scalar dense scratch bits over the pair domain
	dirty []int32   // word indices with at least one bit set in dense

	pstack  []int32  // mask closure stack (packed-b indices)
	amask   []uint64 // accumulated A-mask per packed-b state
	adone   []uint64 // processed A-mask per packed-b state
	touched []uint64 // presence bitmap over packed-b states
	minPb   int32    // touched span, valid when ntouch > 0
	maxPb   int32
	ntouch  int

	// mseedPbs/mseedMasks are the mask-path φ seeds, bucketed by Int-event
	// index: parallel slices of (packed-b state, A-mask) rather than one
	// struct slice, saving the 4 bytes of padding a 12-byte struct would
	// carry through the engine's largest transient buffers.
	mseedPbs   [][]int32
	mseedMasks [][]uint64

	// pbHint reports a cheap lower bound on the packed-b domain size, used
	// to size the mask arrays in one step instead of doubling up to it: the
	// domain discovered so far (deriver.packedStates; racing with a
	// demand-driven expansion is harmless, any value is a valid hint).
	pbHint func() int

	arena *pairArena // per-batch output storage
}

func newScratch(d *deriver) *scratch {
	return &scratch{
		seeds:      make([][]int32, len(d.intl)),
		mseedPbs:   make([][]int32, len(d.intl)),
		mseedMasks: make([][]uint64, len(d.intl)),
		pbHint:     d.packedStates,
		arena:      newPairArena(),
	}
}

// getScratch returns the persistent working set for worker w, creating it
// on first use. Called only on the deriver's goroutine, between merges: for
// the initial closure and before each batch's fan-out.
func (d *deriver) getScratch(w int) *scratch {
	for len(d.scratches) <= w {
		d.scratches = append(d.scratches, newScratch(d))
	}
	return d.scratches[w]
}

// setBit records pair p in the scalar scratch, growing the dense array on
// demand (the pair domain grows during a closure when the environment is
// demand-driven). It reports whether p was newly set.
func (sc *scratch) setBit(p int32) bool {
	w := int(p >> 6)
	if w >= len(sc.dense) {
		grown := make([]uint64, max(2*len(sc.dense), w+64))
		copy(grown, sc.dense)
		sc.dense = grown
	}
	bit := uint64(1) << (uint(p) & 63)
	old := sc.dense[w]
	if old&bit != 0 {
		return false
	}
	if old == 0 {
		sc.dirty = append(sc.dirty, int32(w))
	}
	sc.dense[w] = old | bit
	return true
}

// extract converts the scalar scratch's working set into canonical sparse
// form in the worker arena and resets the scratch for the next closure.
func (sc *scratch) extract() pairset {
	slices.Sort(sc.dirty)
	out := sc.arena.alloc(2 * len(sc.dirty))
	n := 0
	for _, w := range sc.dirty {
		out[n] = uint64(w)
		out[n+1] = sc.dense[w]
		n += 2
		sc.dense[w] = 0
	}
	sc.dirty = sc.dirty[:0]
	return out[:n]
}

// addMask ORs m into packed-b state pb's accumulated A-mask, growing the
// mask arrays on demand, and reports whether any bit was new.
func (sc *scratch) addMask(pb int32, m uint64) bool {
	w := int(pb)
	if w >= len(sc.amask) {
		n := max(2*len(sc.amask), w+64, sc.pbHint())
		g := make([]uint64, n)
		copy(g, sc.amask)
		sc.amask = g
		g = make([]uint64, n)
		copy(g, sc.adone)
		sc.adone = g
		g = make([]uint64, (n+63)/64)
		copy(g, sc.touched)
		sc.touched = g
	}
	old := sc.amask[w]
	nw := old | m
	if nw == old {
		return false
	}
	if old == 0 {
		sc.touched[w>>6] |= 1 << (uint(w) & 63)
		if sc.ntouch == 0 || pb < sc.minPb {
			sc.minPb = pb
		}
		if sc.ntouch == 0 || pb > sc.maxPb {
			sc.maxPb = pb
		}
		sc.ntouch++
	}
	sc.amask[w] = nw
	return true
}

// maskSeed adds (pb, m) to the mask-closure working set and schedules pb
// for processing if anything was new. The worklist doubles explicitly:
// frontier walks push it into the megabyte range, where append's gentler
// growth factor would reallocate (and copy) several times more often.
func (sc *scratch) maskSeed(pb int32, m uint64) {
	if sc.addMask(pb, m) {
		if len(sc.pstack) == cap(sc.pstack) {
			g := make([]int32, len(sc.pstack), max(2*cap(sc.pstack), 1024))
			copy(g, sc.pstack)
			sc.pstack = g
		}
		sc.pstack = append(sc.pstack, pb)
	}
}

// pushSeed appends one (pb, mask) seed to Int-event bucket ii, keeping the
// parallel slices in step and doubling their capacity explicitly, for the
// same reason maskSeed does.
func (sc *scratch) pushSeed(ii int32, pb int32, m uint64) {
	ps := sc.mseedPbs[ii]
	if len(ps) == cap(ps) {
		c := max(2*cap(ps), 1024)
		g := make([]int32, len(ps), c)
		copy(g, ps)
		ps = g
		gm := make([]uint64, len(sc.mseedMasks[ii]), c)
		copy(gm, sc.mseedMasks[ii])
		sc.mseedMasks[ii] = gm
	}
	sc.mseedPbs[ii] = append(ps, pb)
	sc.mseedMasks[ii] = append(sc.mseedMasks[ii], m)
}

// resetMask clears the mask-closure working set after an aborted walk (the
// successful path clears during extraction instead).
func (sc *scratch) resetMask() {
	if sc.ntouch == 0 {
		return
	}
	for wi := int(sc.minPb) >> 6; wi <= int(sc.maxPb)>>6; wi++ {
		tw := sc.touched[wi]
		sc.touched[wi] = 0
		for tw != 0 {
			pb := wi<<6 + bits.TrailingZeros64(tw)
			tw &= tw - 1
			sc.amask[pb] = 0
			sc.adone[pb] = 0
		}
	}
	sc.ntouch = 0
	sc.pstack = sc.pstack[:0]
}

// stripePacker assembles a canonical pairset from nondecreasing word
// contributions: add merges bits into the pending word while the index
// repeats and flushes it when the index advances. Callers guarantee
// nondecreasing word indices (ascending packed-b stripes have ascending
// base words, and a stripe spills into at most the following word).
type stripePacker struct {
	out []uint64
	n   int
	cw  int64
	cv  uint64
}

func (p *stripePacker) add(w int64, b uint64) {
	if b == 0 {
		return
	}
	if w == p.cw {
		p.cv |= b
		return
	}
	if p.cv != 0 {
		p.out[p.n] = uint64(p.cw)
		p.out[p.n+1] = p.cv
		p.n += 2
	}
	p.cw, p.cv = w, b
}

// addStripe places an A-state mask at packed-b state pb's stripe of the
// pair domain (pair index base pb×numA).
func (p *stripePacker) addStripe(pb int32, m uint64, numA int) {
	base := int64(pb) * int64(numA)
	off := uint(base) & 63
	p.add(base>>6, m<<off)
	p.add(base>>6+1, m>>(64-off)) // off == 0 shifts by 64 → 0: no spill
}

func (p *stripePacker) flush() int {
	if p.cv != 0 {
		p.out[p.n] = uint64(p.cw)
		p.out[p.n+1] = p.cv
		p.n += 2
	}
	return p.n
}

// extractMask converts the mask-closure working set into canonical sparse
// form in the worker arena, clearing the working set as it goes. The arena
// allocation is a safe upper bound (two words per touched packed-b state,
// capped by the touched span) shrunk to the packed size afterwards.
func (sc *scratch) extractMask(numA int) pairset {
	if sc.ntouch == 0 {
		return pairset{}
	}
	base0 := int64(sc.minPb) * int64(numA)
	base1 := int64(sc.maxPb)*int64(numA) + int64(numA) - 1
	bound := int(base1>>6-base0>>6) + 2
	if b2 := 2 * sc.ntouch; b2 < bound {
		bound = b2
	}
	pk := stripePacker{out: sc.arena.alloc(2 * bound)}
	for wi := int(sc.minPb) >> 6; wi <= int(sc.maxPb)>>6; wi++ {
		tw := sc.touched[wi]
		sc.touched[wi] = 0
		for tw != 0 {
			pb := int32(wi<<6 + bits.TrailingZeros64(tw))
			tw &= tw - 1
			pk.addStripe(pb, sc.amask[pb], numA)
			sc.amask[pb] = 0
			sc.adone[pb] = 0
		}
	}
	n := pk.flush()
	sc.arena.shrinkLast(2*bound - n)
	sc.ntouch = 0
	return pk.out[:n]
}

// rowsPacked returns packed-b state pb's rows and its variant's packed-b
// offset, which turns the rows' targets into packed-b ids. Under a
// demand-driven environment this is the fusion point: the first request for
// a state's rows is what expands it.
func (d *deriver) rowsPacked(pb int32) (ext []bedge, ints []int32, off int32) {
	v := d.variantOf(pb)
	off = d.boff[v]
	ext, ints = d.envs[v].Rows(spec.State(pb - off))
	return ext, ints, off
}

// closure computes the smallest pair set containing seeds that is closed
// under B's internal moves and under joint (ψ-step) external moves — the
// paper's "reachable without converter participation" closure shared by
// h.ε and φ. ok reports the ok.J predicate: it is false when some reached
// pair lets B emit an external event the service does not then allow;
// offend is the first such event encountered (meaningful only when !ok).
//
// The walk aborts on the first violation: a failed set is discarded by
// every caller (φ omits the transition, h.ε fails the derivation), so
// nothing downstream ever observes the partially built set, and the
// counterexample machinery (witness.go) re-derives a shortest offending
// run independently of how far this walk got. The two engines may abort at
// different violations, but whether any violation exists is a property of
// the full closure and thus engine-independent.
func (d *deriver) closure(sc *scratch, seeds []int32) (out pairset, ok bool, offend spec.Event) {
	if d.useMask {
		numA := int32(d.numA)
		for _, p := range seeds {
			sc.maskSeed(p/numA, 1<<(uint(p)%uint(numA)))
		}
		return d.maskWalk(sc)
	}
	numA := int32(d.numA)
	stack := sc.stack[:0]
	ok = true
	for _, p := range seeds {
		if sc.setBit(p) {
			stack = append(stack, p)
		}
	}
walk:
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		a := p % numA
		ext, ints, off := d.rowsPacked(p / numA)
		for _, t := range ints {
			q := (off+t)*numA + a
			if sc.setBit(q) {
				stack = append(stack, q)
			}
		}
		arow := int(a) * d.nev
		for _, ed := range ext {
			if !d.isExt[ed.Ev] {
				continue // Int event: needs the converter, not closure
			}
			a2 := d.psi[arow+int(ed.Ev)]
			if a2 < 0 {
				offend = d.events[ed.Ev]
				ok = false
				break walk
			}
			q := (off+ed.To)*numA + a2
			if sc.setBit(q) {
				stack = append(stack, q)
			}
		}
	}
	sc.stack = stack[:0]
	return sc.extract(), ok, offend
}

// maskWalk runs the word-parallel closure from the working set seeded via
// maskSeed. Each dequeue takes a packed-b state's unprocessed A-mask delta
// and serves every A-state in it with one row scan: internal B-moves carry
// the delta unchanged, joint external moves map it through the ψ bit
// table, and a nonzero intersection with badA is an ok.J violation.
//
// The worklist runs FIFO: breadth-first wavefronts let a state's mask bits
// accumulate while the rest of its wavefront is processed, so each row
// scan serves a fat delta. LIFO order on the pipeline-shaped products this
// engine is sized for degenerates to one-bit deltas — one row scan per
// pair, the very cost the mask engine exists to avoid. Order cannot change
// the result: the closure is the unique least fixpoint of a monotone
// system, and the violation verdict is a property of that fixpoint.
func (d *deriver) maskWalk(sc *scratch) (out pairset, ok bool, offend spec.Event) {
	for qh := 0; qh < len(sc.pstack); qh++ {
		pb := sc.pstack[qh]
		delta := sc.amask[pb] &^ sc.adone[pb]
		if delta == 0 {
			continue
		}
		sc.adone[pb] |= delta
		ext, ints, off := d.rowsPacked(pb)
		for _, t := range ints {
			tb := off + t
			if sc.addMask(tb, delta) {
				sc.pstack = append(sc.pstack, tb)
			}
		}
		for _, ed := range ext {
			ev := int(ed.Ev)
			if !d.isExt[ev] {
				continue // Int event: needs the converter, not closure
			}
			if delta&d.badA[ev] != 0 {
				sc.resetMask()
				return nil, false, d.events[ev]
			}
			var m2 uint64
			for dm := delta; dm != 0; dm &= dm - 1 {
				m2 |= d.psiBit[bits.TrailingZeros64(dm)*d.nev+ev]
			}
			tb := off + ed.To
			if sc.addMask(tb, m2) {
				sc.pstack = append(sc.pstack, tb)
			}
		}
	}
	sc.pstack = sc.pstack[:0]
	return sc.extractMask(d.numA), true, offend
}

// expandState computes φ(J, e) for every Int event e of one frontier
// state, writing len(intl) results into out. J's pairs are walked once,
// bucketing the e-labelled external B-edges into per-event seed sets; each
// non-empty seed set runs one closure.
func (d *deriver) expandState(sc *scratch, si int, out []phiResult) {
	if d.useMask {
		d.expandStateMask(sc, si, out)
		return
	}
	numA := int32(d.numA)
	for i := range sc.seeds {
		sc.seeds[i] = sc.seeds[i][:0]
	}
	d.table.get(int32(si)).forEach(func(p int32) {
		a := p % numA
		ext, _, off := d.rowsPacked(p / numA)
		for _, ed := range ext {
			if ii := d.intlIndex[ed.Ev]; ii >= 0 {
				sc.seeds[ii] = append(sc.seeds[ii], (off+ed.To)*numA+a)
			}
		}
	})
	for ei := range out {
		if len(sc.seeds[ei]) == 0 {
			out[ei] = phiResult{hash: emptyPairsetHash, ok: true} // vacuous successor
			continue
		}
		set, ok, _ := d.closure(sc, sc.seeds[ei])
		out[ei] = phiResult{set: set, ok: ok}
		if ok {
			out[ei].hash = set.hash()
		}
	}
}

// expandStateMask is expandState on the mask engine. J's canonical pair
// order is packed-b-major, so one linear walk yields each packed-b state's
// A-mask with consecutive pairs grouped; each group costs one row scan to
// bucket its Int-successor (pb, mask) seeds.
func (d *deriver) expandStateMask(sc *scratch, si int, out []phiResult) {
	numA := int32(d.numA)
	for i := range sc.mseedPbs {
		sc.mseedPbs[i] = sc.mseedPbs[i][:0]
		sc.mseedMasks[i] = sc.mseedMasks[i][:0]
	}
	curPb := int32(-1)
	var curMask uint64
	flush := func() {
		if curMask == 0 {
			return
		}
		ext, _, off := d.rowsPacked(curPb)
		for _, ed := range ext {
			if ii := d.intlIndex[ed.Ev]; ii >= 0 {
				sc.pushSeed(ii, off+ed.To, curMask)
			}
		}
	}
	d.table.get(int32(si)).forEach(func(p int32) {
		pb := p / numA
		if pb != curPb {
			flush()
			curPb, curMask = pb, 0
		}
		curMask |= 1 << (uint(p) % uint(numA))
	})
	flush()
	for ei := range out {
		if len(sc.mseedPbs[ei]) == 0 {
			out[ei] = phiResult{hash: emptyPairsetHash, ok: true} // vacuous successor
			continue
		}
		for i, pb := range sc.mseedPbs[ei] {
			sc.maskSeed(pb, sc.mseedMasks[ei][i])
		}
		set, ok, _ := d.maskWalk(sc)
		out[ei] = phiResult{set: set, ok: ok}
		if ok {
			out[ei].hash = set.hash()
		}
	}
}

// expandBatch computes φ results for frontier states [lo, hi) into results
// ((hi-lo)×len(intl) entries, frontier order), fanned out over the workers.
func (d *deriver) expandBatch(lo, hi int, results []phiResult) {
	ne := len(d.intl)
	n := hi - lo
	for w := 0; w < min(d.workers, n); w++ {
		d.getScratch(w) // created here, so no goroutine grows d.scratches
	}
	fanOut(n, d.workers, func(i, w int) {
		d.expandState(d.scratches[w], lo+i, results[i*ne:(i+1)*ne])
	})
}

// fanOut calls f(i, w) once for every i in [0, n), on up to workers
// goroutines; w < min(workers, n) names the calling goroutine, so f can
// use per-worker state without locks. Items are handed out by an atomic
// cursor rather than pre-chunked, since the cost of a frontier state's φ
// results varies wildly. With at most one worker it is a plain loop on the
// caller's goroutine.
func fanOut(n, workers int, f func(i, w int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i, 0)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				f(i, w)
			}
		}(w)
	}
	wg.Wait()
}
