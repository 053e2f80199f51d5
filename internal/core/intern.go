// Interned, arena-backed sparse-set storage for the safety phase's h.r
// pair sets.
//
// Every converter state of the safety phase is a set of pair-domain indices
// (encoding (variant, a, b) triples). Earlier engines stored each set as a
// fixed-width bitset over the whole V × S_A × S_B domain, which made every
// closure, hash, and equality scan cost O(domain); PR 1 replaced that with
// canonical sparse run lists, one heap allocation per interned set. At the
// multi-million-state frontier that one-allocation-per-set design is itself
// the bottleneck: a chain(9) derivation interns sets of ~10⁶ pairs, and the
// per-set `make` plus the transient φ-result copies dominated alloc_bytes.
// This file therefore mirrors compose.rowArena: pair sets live in sealed
// append-only uint64 chunks, a published pairset is a slice header into a
// chunk, and a million sets cost a few hundred chunk allocations.
//
// The intern table is one open-addressed hash index written only by the
// sequential merge (core.go, mergeBatch), which walks a batch's φ results
// in frontier (state, Int-event) order and gives each set the next
// canonical ID at its first occurrence. That is the discovery order of the
// paper's worklist, so the converter's state numbering is bit-identical at
// every worker count. Every φ step runs its closure and probes this table
// once; there is no memo of closures by seed set (DESIGN §13 measures why).
package core

import (
	"math/bits"

	"protoquot/internal/sat"
)

// pairset is a canonical sparse bit set over the pair domain: even slots
// hold 64-bit-word indices (strictly ascending), odd slots the corresponding
// nonzero word. The empty set is the empty (or nil) slice. Two equal sets
// have identical representations, so equality is a flat compare and the
// hash needs no normalization. Interned pairsets are slice headers into
// sealed arena chunks and must never be mutated or appended to.
type pairset []uint64

func (ps pairset) count() int {
	n := 0
	for i := 1; i < len(ps); i += 2 {
		n += bits.OnesCount64(ps[i])
	}
	return n
}

// forEach visits the set pair indices in ascending order. With the pb-major
// pair encoding, ascending index order is ascending (packed-b, a) order,
// which downstream consumers (combo projection, verdict merge-walk) rely on.
func (ps pairset) forEach(f func(p int32)) {
	for i := 0; i < len(ps); i += 2 {
		base := int32(ps[i]) << 6
		w := ps[i+1]
		for w != 0 {
			f(base + int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// forEachUntil visits the set pair indices in ascending order, stopping
// early when f returns true.
func (ps pairset) forEachUntil(f func(p int32) bool) {
	for i := 0; i < len(ps); i += 2 {
		base := int32(ps[i]) << 6
		w := ps[i+1]
		for w != 0 {
			if f(base + int32(bits.TrailingZeros64(w))) {
				return
			}
			w &= w - 1
		}
	}
}

// hash is the word-parallel mixing hash of sat.HashWords; canonical form
// makes it a set hash. Deterministic across runs (no seed) so bucket
// behavior never depends on hash randomization — though no output depends
// on the hash at all, since IDs follow frontier order.
func (ps pairset) hash() uint64 { return sat.HashWords(ps) }

func (ps pairset) equal(o pairset) bool { return sat.WordsEqual(ps, o) }

// emptyPairsetHash is the hash of the zero-length set — the vacuous
// converter state's pair set — precomputed so vacuous φ results reach the
// merge hashed without a worker-side hash call.
var emptyPairsetHash = pairset(nil).hash()

// pairArenaChunkWords caps the arena chunk capacity: 1<<13 uint64 words =
// 64 KiB per chunk. A variable, not a constant, so the differential tests
// can force tiny chunks and exercise every chunk-boundary path
// (TestSafetyDifferential).
var pairArenaChunkWords = 1 << 13

// firstChunk is the capacity, in elements, of an arena's first chunk.
const firstChunk = 256

// chunkSize is the capacity of an arena's k-th chunk: firstChunk doubled
// once per earlier chunk, capped at limit. A small derivation reserves a
// few KiB instead of a full chunk per arena; a large one reaches the cap
// after a handful of chunks.
func chunkSize(k, limit int) int {
	c := min(firstChunk, limit)
	for ; k > 0 && c < limit; k-- {
		c *= 2
	}
	return min(c, limit)
}

// pairArena is chunked append-only uint64 storage. Sealed chunks never move
// or shrink, so placed pairsets remain valid slice headers for the life of
// the derivation. A single goroutine owns any given arena at any given time
// (worker scratch arenas during expansion, the intern arena during the
// sequential merge).
type pairArena struct {
	chunkWords int // cap on chunkSize; a larger alloc gets a chunk of its own
	chunks     [][]uint64
	cur        int   // chunk new allocations fill; earlier chunks are sealed
	reserved   int64 // total reserved chunk bytes
}

func newPairArena() *pairArena { return &pairArena{chunkWords: pairArenaChunkWords} }

// alloc returns a length-n sub-slice of chunk storage, not zeroed: every
// caller overwrites what it keeps. n == 0 returns nil. The fill cursor only
// ever advances (a chunk whose remaining tail can't fit n is sealed until
// the next reset), so a reset arena reuses its existing chunks — including
// the oversize ones big closures forced — before reserving anything new.
func (ar *pairArena) alloc(n int) []uint64 {
	if n == 0 {
		return nil
	}
	for ar.cur < len(ar.chunks) && cap(ar.chunks[ar.cur])-len(ar.chunks[ar.cur]) < n {
		ar.cur++
	}
	if ar.cur == len(ar.chunks) {
		c := max(chunkSize(len(ar.chunks), ar.chunkWords), n)
		ar.chunks = append(ar.chunks, make([]uint64, 0, c))
		ar.reserved += int64(c) * 8
	}
	chunk := ar.chunks[ar.cur]
	out := chunk[len(chunk) : len(chunk)+n]
	ar.chunks[ar.cur] = chunk[:len(chunk)+n]
	return out
}

// shrinkLast gives back the unused tail of the most recent alloc: the mask
// closure's extraction allocates a safe upper bound and returns what it
// did not fill. Only valid immediately after alloc, before any further
// alloc.
func (ar *pairArena) shrinkLast(unused int) {
	if unused == 0 {
		return
	}
	ar.chunks[ar.cur] = ar.chunks[ar.cur][:len(ar.chunks[ar.cur])-unused]
}

// place copies ps into the arena and returns the sealed header. The empty
// set places as an empty (non-nil irrelevant) header.
func (ar *pairArena) place(ps pairset) pairset {
	if len(ps) == 0 {
		return pairset{}
	}
	out := ar.alloc(len(ps))
	copy(out, ps)
	return out
}

// reset rewinds every chunk to length zero, keeping capacity. Used by the
// per-worker scratch arenas between merge batches: by then every surviving
// φ result has been copied into intern storage.
func (ar *pairArena) reset() {
	for i := range ar.chunks {
		ar.chunks[i] = ar.chunks[i][:0]
	}
	ar.cur = 0
}

// int32Arena is pairArena for int32 rows — the converter's successor rows,
// one len(intl) row per state, which used to be one heap allocation each.
type int32Arena struct {
	chunkInts int // cap on chunkSize
	chunks    [][]int32
	reserved  int64
}

func newInt32Arena() *int32Arena { return &int32Arena{chunkInts: 2 * pairArenaChunkWords} }

func (ar *int32Arena) alloc(n int) []int32 {
	if n == 0 {
		return nil
	}
	last := len(ar.chunks) - 1
	if last < 0 || cap(ar.chunks[last])-len(ar.chunks[last]) < n {
		c := max(chunkSize(len(ar.chunks), ar.chunkInts), n)
		ar.chunks = append(ar.chunks, make([]int32, 0, c))
		ar.reserved += int64(c) * 4
		last++
	}
	chunk := ar.chunks[last]
	out := chunk[len(chunk) : len(chunk)+n]
	ar.chunks[last] = chunk[:len(chunk)+n]
	return out
}

// firstInternSlots is the intern index's initial slot count. The index
// doubles whenever it would pass half full, so growth costs O(sets) in
// total and a probe meets a short run.
const firstInternSlots = 1 << 6

// islot is one slot of the intern index: a set's full hash and its ID plus
// one, so the zero slot is empty.
type islot struct {
	hash uint64
	id1  int32
}

// internTable assigns one canonical ID per distinct set, IDs dense in
// first-intern order (frontier order), doubling as converter state indices.
// slots is an open-addressed index over them: linear probing from the low
// bits of the set hash (sat.HashWords ends in an avalanche finalizer), with
// the full hash kept in the slot so a probe compares sets only on a 64-bit
// match. sets is the ID → set directory every reader (expansion workers,
// the progress phase, diagnostics) goes through; each set is copied into
// the table's own arena. The sequential merge is the only writer and
// expansion workers only read, and the two never overlap, so no locking
// anywhere.
type internTable struct {
	slots   []islot
	sets    []pairset
	arena   *pairArena
	lookups int
	hits    int
}

func newInternTable() *internTable {
	return &internTable{slots: make([]islot, firstInternSlots), arena: newPairArena()}
}

// intern returns the canonical ID of ps, assigning the next one on first
// sight.
func (t *internTable) intern(ps pairset, h uint64) (id int32, hit bool) {
	t.lookups++
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i].id1 != 0; i = (i + 1) & mask {
		if sl := t.slots[i]; sl.hash == h && t.sets[sl.id1-1].equal(ps) {
			t.hits++
			return sl.id1 - 1, true
		}
	}
	id = int32(len(t.sets))
	t.sets = append(t.sets, t.arena.place(ps))
	t.slots[i] = islot{hash: h, id1: id + 1}
	if 2*len(t.sets) > len(t.slots) {
		t.grow()
	}
	return id, false
}

// grow doubles the index, reinserting every slot.
func (t *internTable) grow() {
	old := t.slots
	t.slots = make([]islot, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, sl := range old {
		if sl.id1 == 0 {
			continue
		}
		i := sl.hash & mask
		for t.slots[i].id1 != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = sl
	}
}

// dropIndex releases the hash index once interning is over. The arena,
// which holds the sets the directory points into, stays.
func (t *internTable) dropIndex() { t.slots = nil }

// get returns the canonical pairset for an interned ID. The caller must not
// mutate it.
func (t *internTable) get(id int32) pairset { return t.sets[id] }
