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
// One closure engine serves every service width. It keys its working set
// by (packed-b state, A-word): key pb×W + w holds, as one uint64 mask, the
// A-states 64w … 64w+63 reached at packed-b state pb, where W is ⌈numA/64⌉
// rounded up to a power of two. At W = 1, the common case (service specs
// are small even when the environment is huge), the key is pb. One row
// scan serves all A-states of a key: internal B-moves OR the delta mask
// across, joint external moves map it through the ψ table into the
// target's A-words, and ok.J violations are one AND against a per-event
// "ψ undefined" mask. Compared to a per-pair walk this divides row
// traffic — the dominant cost at the frontier, where closures span ~10⁶
// pairs — by up to 64. The per-pair walk it replaced is kept as its test
// oracle (export_test.go).
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

// safetyMergeBatch is the number of frontier states expanded between
// merges. It bounds how far past Options.MaxStates a derivation can run
// before the per-batch check fires (by batch × |Int| states) and how much
// transient closure output the worker arenas hold at once. It is a constant
// of the engine, never derived from the worker count: batch boundaries are
// observable through MaxStates abort points, and those must be
// bit-identical at every worker count. A variable, not a constant, so the
// differential tests can force tiny batches; it must not change
// mid-derivation.
var safetyMergeBatch = 4096

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
// amask/adone/touched hold the closure's walk state, indexed by mask key
// (packed-b state × W + A-word): accumulated and processed A-state masks
// plus a presence bitmap, so extraction and reset visit only the touched
// keys: a closure touching k keys costs O(k) regardless of how large the
// pair domain is (or grows to, under a demand-driven environment). arena
// backs every closure result the worker builds during a batch; it rewinds
// after each merge.
//
// There is deliberately no per-worker row cache here. compose.Lazy's read
// path is a single atomic load against arena-backed rows that never move,
// so caching slice headers per worker bought nothing but a doubling-copy
// churn that dominated large-derivation profiles.
type scratch struct {
	pstack  []int32  // closure worklist (mask keys)
	amask   []uint64 // accumulated A-mask per key
	adone   []uint64 // processed A-mask per key
	touched []uint64 // presence bitmap over keys
	minKey  int32    // touched span, valid when ntouch > 0
	maxKey  int32
	ntouch  int

	// mseedKeys/mseedMasks are the φ seeds, bucketed by Int-event index:
	// parallel slices of (key, A-mask) rather than one struct slice, saving
	// the 4 bytes of padding a 12-byte struct would carry through the
	// engine's largest transient buffers.
	mseedKeys  [][]int32
	mseedMasks [][]uint64

	// keyHint reports a cheap lower bound on the key domain size, used to
	// size the mask arrays in one step instead of doubling up to it: the
	// packed-b domain discovered so far (deriver.packedStates; racing with
	// a demand-driven expansion is harmless, any value is a valid hint)
	// times W.
	keyHint func() int

	arena *pairArena // per-batch output storage
}

func newScratch(d *deriver) *scratch {
	return &scratch{
		mseedKeys:  make([][]int32, len(d.intl)),
		mseedMasks: make([][]uint64, len(d.intl)),
		keyHint:    func() int { return d.packedStates() * d.aw },
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

// add ORs m into key k's accumulated A-mask and schedules k for
// processing if any bit was new.
func (sc *scratch) add(k int32, m uint64) {
	if int(k) >= len(sc.amask) {
		sc.grow(int(k))
	}
	old := sc.amask[k]
	if old|m == old {
		return
	}
	if old == 0 {
		sc.touched[k>>6] |= 1 << (uint(k) & 63)
		if sc.ntouch == 0 || k < sc.minKey {
			sc.minKey = k
		}
		if sc.ntouch == 0 || k > sc.maxKey {
			sc.maxKey = k
		}
		sc.ntouch++
	}
	sc.amask[k] = old | m
	sc.pstack = append(sc.pstack, k)
}

// grow sizes the mask arrays to hold key k, at least doubling them.
func (sc *scratch) grow(k int) {
	n := max(2*len(sc.amask), k+64, sc.keyHint())
	sc.amask = slices.Grow(sc.amask, n-len(sc.amask))[:n]
	sc.adone = slices.Grow(sc.adone, n-len(sc.adone))[:n]
	sc.touched = slices.Grow(sc.touched, (n+63)/64-len(sc.touched))[:(n+63)/64]
}

// appendEntry appends k to s, doubling its capacity explicitly: frontier
// states push the seed buckets into the megabyte range, where append's
// gentler growth factor would reallocate (and copy) several times more
// often. The worklist keeps append's growth: it is the larger buffer, and
// doubling it cost derive-deep's peak RSS about 3 MB.
func appendEntry[T int32 | uint64](s []T, k T) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, max(2*cap(s), 1024)), s...)
	}
	return append(s, k)
}

// resetMask clears the closure's working set after an aborted walk (the
// successful path clears during extraction instead).
func (sc *scratch) resetMask() {
	if sc.ntouch == 0 {
		return
	}
	for wi := int(sc.minKey) >> 6; wi <= int(sc.maxKey)>>6; wi++ {
		tw := sc.touched[wi]
		sc.touched[wi] = 0
		for tw != 0 {
			k := wi<<6 + bits.TrailingZeros64(tw)
			tw &= tw - 1
			sc.amask[k], sc.adone[k] = 0, 0
		}
	}
	sc.ntouch = 0
	sc.pstack = sc.pstack[:0]
}

// stripePacker assembles a canonical pairset from nondecreasing word
// contributions: add merges bits into the pending word while the index
// repeats and flushes it when the index advances. Callers guarantee
// nondecreasing word indices: ascending keys have ascending stripe bases,
// and a stripe, which covers at most 64 pairs below the next key's base,
// spills into at most the following word.
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

// addStripe places an A-state mask at pair index base: key pb×W + w's
// stripe starts at pair pb×numA + 64w.
func (p *stripePacker) addStripe(base int64, m uint64) {
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

// extractMask converts the closure's working set into canonical sparse
// form in the worker arena, clearing the working set as it goes. The arena
// allocation is a safe upper bound (two words per touched key, capped by
// the touched span) shrunk to the packed size afterwards.
func (d *deriver) extractMask(sc *scratch) pairset {
	if sc.ntouch == 0 {
		return pairset{}
	}
	numA := int64(d.numA)
	minPb, _ := d.splitKey(sc.minKey)
	maxPb, _ := d.splitKey(sc.maxKey)
	base0 := int64(minPb) * numA
	base1 := int64(maxPb)*numA + numA - 1
	bound := int(base1>>6-base0>>6) + 2
	if b2 := 2 * sc.ntouch; b2 < bound {
		bound = b2
	}
	pk := stripePacker{out: sc.arena.alloc(2 * bound)}
	for wi := int(sc.minKey) >> 6; wi <= int(sc.maxKey)>>6; wi++ {
		tw := sc.touched[wi]
		sc.touched[wi] = 0
		for tw != 0 {
			k := int32(wi<<6 + bits.TrailingZeros64(tw))
			tw &= tw - 1
			pb, w := d.splitKey(k)
			pk.addStripe(int64(pb)*numA+int64(w)*64, sc.amask[k])
			sc.amask[k], sc.adone[k] = 0, 0
		}
	}
	n := pk.flush()
	sc.arena.shrinkLast(2*bound - n)
	sc.ntouch = 0
	return pk.out[:n]
}

// splitKey decomposes mask key k into its packed-b state and A-word.
func (d *deriver) splitKey(k int32) (pb, w int32) {
	return k >> d.awShift, k & (1<<d.awShift - 1)
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
// pair lets B emit an external event the service does not then allow.
func (d *deriver) closure(sc *scratch, seeds []int32) (out pairset, ok bool) {
	numA, aw := int32(d.numA), int32(d.aw)
	for _, p := range seeds {
		a := p % numA
		sc.add(p/numA*aw+a>>6, 1<<(uint(a)&63))
	}
	return d.maskWalk(sc)
}

// maskWalk runs the closure from the working set seeded through add. Each
// dequeue takes a key's unprocessed A-mask delta and serves every A-state
// in it with one row scan: internal B-moves carry the delta unchanged to
// the same A-word of the target, joint external moves map each A-state
// through ψ into the target's A-words, and a nonzero intersection with
// badA is an ok.J violation.
//
// The walk aborts on the first violation: a failed set is discarded by
// every caller (φ omits the transition, h.ε fails the derivation), so
// nothing downstream ever observes the partially built set, and the
// counterexample machinery (witness.go) re-derives a shortest offending
// run independently of how far this walk got. Whether any violation exists
// is a property of the full closure, not of the walk order.
//
// The worklist runs FIFO: breadth-first wavefronts let a key's mask bits
// accumulate while the rest of its wavefront is processed, so each row
// scan serves a fat delta. LIFO order on pipeline-shaped products
// degenerates to one-bit deltas — one row scan per pair, the very cost the
// mask walk exists to avoid. Order cannot change the result: the closure is
// the unique least fixpoint of a monotone system.
func (d *deriver) maskWalk(sc *scratch) (out pairset, ok bool) {
	aw := int32(d.aw)
	for qh := 0; qh < len(sc.pstack); qh++ {
		k := sc.pstack[qh]
		delta := sc.amask[k] &^ sc.adone[k]
		if delta == 0 {
			continue
		}
		sc.adone[k] |= delta
		pb, w := d.splitKey(k)
		ext, ints, off := d.rowsPacked(pb)
		for _, t := range ints {
			sc.add((off+t)*aw+w, delta)
		}
		arow := int(w) * 64 * d.nev
		for _, ed := range ext {
			ev := int(ed.Ev)
			if !d.isExt[ev] {
				continue // Int event: needs the converter, not closure
			}
			if delta&d.badA[ev*int(aw)+int(w)] != 0 {
				sc.resetMask()
				return nil, false
			}
			// ψ may send the A-states of one word into several words of
			// the target: gather the bits per target word, adding them
			// whenever the word changes.
			tb := (off + ed.To) * aw
			cw := int32(-1)
			var m2 uint64
			for dm := delta; dm != 0; dm &= dm - 1 {
				a2 := d.psi[arow+bits.TrailingZeros64(dm)*d.nev+ev]
				if a2>>6 != cw {
					if m2 != 0 {
						sc.add(tb+cw, m2)
					}
					cw, m2 = a2>>6, 0
				}
				m2 |= 1 << (uint(a2) & 63)
			}
			sc.add(tb+cw, m2)
		}
	}
	sc.pstack = sc.pstack[:0]
	return d.extractMask(sc), true
}

// expandState computes φ(J, e) for every Int event e of one frontier
// state, writing len(intl) results into out. J's canonical pair order is
// packed-b-major, so one linear walk yields each key's A-mask with
// consecutive pairs grouped; each group costs one row scan to bucket its
// Int-successor (key, mask) seeds, and each non-empty bucket runs one
// closure.
func (d *deriver) expandState(sc *scratch, si int, out []phiResult) {
	numA, aw := int32(d.numA), int32(d.aw)
	for i := range sc.mseedKeys {
		sc.mseedKeys[i] = sc.mseedKeys[i][:0]
		sc.mseedMasks[i] = sc.mseedMasks[i][:0]
	}
	curKey := int32(-1)
	var curMask uint64
	flush := func() {
		if curMask == 0 {
			return
		}
		pb, w := d.splitKey(curKey)
		ext, _, off := d.rowsPacked(pb)
		for _, ed := range ext {
			if ii := d.intlIndex[ed.Ev]; ii >= 0 {
				sc.mseedKeys[ii] = appendEntry(sc.mseedKeys[ii], (off+ed.To)*aw+w)
				sc.mseedMasks[ii] = appendEntry(sc.mseedMasks[ii], curMask)
			}
		}
	}
	d.table.get(int32(si)).forEach(func(p int32) {
		a := p % numA
		if k := p/numA*aw + a>>6; k != curKey {
			flush()
			curKey, curMask = k, 0
		}
		curMask |= 1 << (uint(a) & 63)
	})
	flush()
	for ei := range out {
		if len(sc.mseedKeys[ei]) == 0 {
			out[ei] = phiResult{hash: emptyPairsetHash, ok: true} // vacuous successor
			continue
		}
		for i, k := range sc.mseedKeys[ei] {
			sc.add(k, sc.mseedMasks[ei][i])
		}
		set, ok := d.maskWalk(sc)
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
