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
// The intern table is hash-sharded. During a merge batch each shard is
// probed and grown by at most one goroutine (fanOut in parallel.go), so
// shards need no locking; canonical IDs are NOT assigned by the shards — a
// deterministic renumbering pass walks the batch's φ results in frontier
// order and numbers first occurrences, so the converter's state numbering is
// bit-identical for every worker and shard count (core.go, mergeBatch).
//
// The seed memo (seedMemo) interns φ-step seed sets the same way and maps
// each seed set to the canonical ID of its closure — or to memoFail when the
// closure violates ok.J — so a structurally repeated frontier expansion
// skips the τ-closure walk entirely. The memo key is the full canonical seed
// set, not the (state, event) pair that produced it: the closure of a set is
// a function of the set alone, which is what makes the memo sound (DESIGN
// §13).
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

func (ps pairset) empty() bool { return len(ps) == 0 }

func (ps pairset) count() int {
	n := 0
	for i := 1; i < len(ps); i += 2 {
		n += bits.OnesCount64(ps[i])
	}
	return n
}

// has reports membership; used only on cold diagnostic paths (the hot
// closure tests membership in its dense scratch instead).
func (ps pairset) has(p int32) bool {
	want := uint64(p >> 6)
	lo, hi := 0, len(ps)/2
	for lo < hi {
		mid := (lo + hi) / 2
		if ps[2*mid] < want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(ps)/2 || ps[2*lo] != want {
		return false
	}
	return ps[2*lo+1]&(1<<(uint(p)&63)) != 0
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
// on the hash at all, since IDs come from the renumbering pass.
func (ps pairset) hash() uint64 { return sat.HashWords(ps) }

func (ps pairset) equal(o pairset) bool { return sat.WordsEqual(ps, o) }

// emptyPairsetHash is the hash of the zero-length set — the vacuous
// converter state's pair set — precomputed so vacuous φ results can be
// routed to their shard without a worker-side hash call.
var emptyPairsetHash = pairset(nil).hash()

// pairArenaChunkWords caps the arena chunk capacity: 1<<13 uint64 words =
// 64 KiB per chunk. A variable, not a constant, so the differential tests
// can force tiny chunks and exercise every chunk-boundary path
// (TestShardedInternDifferential).
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
// (worker scratch arenas during expansion, shard arenas during their shard's
// merge walk, the memo arena on the sequential renumber path).
type pairArena struct {
	chunkWords int // cap on chunkSize; a larger alloc gets a chunk of its own
	chunks     [][]uint64
	cur        int   // chunk new allocations fill; earlier chunks are sealed
	reserved   int64 // total reserved chunk bytes
}

func newPairArena() *pairArena { return &pairArena{chunkWords: pairArenaChunkWords} }

// alloc returns a zeroed length-n sub-slice of chunk storage. n == 0
// returns nil. The fill cursor only ever advances (a chunk whose remaining
// tail can't fit n is sealed until the next reset), so a reset arena reuses
// its existing chunks — including the oversize ones big closures forced —
// before reserving anything new.
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
	for i := range out {
		out[i] = 0
	}
	return out
}

// shrinkLast gives back the unused tail of the most recent alloc: the
// stripe packers allocate a safe upper bound and return what they did not
// fill. Only valid immediately after alloc, before any further alloc.
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
// φ result has been copied into shard or memo storage.
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

// ientry is one interned set in a shard: the sealed arena-backed set and its
// canonical ID, -1 until the renumbering pass assigns one. The invariant
// between merge batches is that every entry has gid ≥ 0: renumbering covers
// every entry a merge created, because each was created on behalf of at
// least one φ result the renumber walk visits.
type ientry struct {
	set pairset
	gid int32
}

// internShard is one hash shard of the intern table: open chaining on the
// full 64-bit hash, entries and their backing storage owned by the shard.
// During a merge batch at most one goroutine touches a shard; between
// batches the sequential paths (initial-state interning, renumbering, get)
// have exclusive access, so no locking anywhere.
type internShard struct {
	buckets map[uint64][]int32
	entries []ientry
	arena   *pairArena
	lookups int
	hits    int
}

// find probes the shard for ps, returning its entry index.
func (s *internShard) find(ps pairset, h uint64) (int32, bool) {
	for _, cand := range s.buckets[h] {
		if s.entries[cand].set.equal(ps) {
			return cand, true
		}
	}
	return -1, false
}

// add copies ps into the shard arena and appends an unnumbered entry.
func (s *internShard) add(ps pairset, h uint64) int32 {
	e := int32(len(s.entries))
	s.entries = append(s.entries, ientry{set: s.arena.place(ps), gid: -1})
	s.buckets[h] = append(s.buckets[h], e)
	return e
}

// internTable hash-conses pairsets across its shards: one canonical ID per
// distinct set, IDs dense in first-intern order (frontier order), doubling
// as converter state indices. byGID is the ID → set directory every reader
// (expansion workers, the progress phase, diagnostics) goes through.
type internTable struct {
	shards []internShard
	mask   uint64
	byGID  []pairset
}

// newInternTable builds a table with nshards shards; nshards must be a
// power of two (resolveInternShards guarantees it).
func newInternTable(nshards int) *internTable {
	t := &internTable{shards: make([]internShard, nshards), mask: uint64(nshards - 1)}
	for i := range t.shards {
		t.shards[i] = internShard{buckets: make(map[uint64][]int32), arena: newPairArena()}
	}
	return t
}

func (t *internTable) shardOf(h uint64) int { return int(h & t.mask) }

// internCanonical is the sequential intern path, used only for the initial
// state's h.ε set (every other set goes through the batched merge). It
// assigns the next canonical ID immediately.
func (t *internTable) internCanonical(ps pairset, h uint64) (id int32, hit bool) {
	s := &t.shards[t.shardOf(h)]
	s.lookups++
	if e, ok := s.find(ps, h); ok {
		s.hits++
		return s.entries[e].gid, true
	}
	e := s.add(ps, h)
	id = int32(len(t.byGID))
	s.entries[e].gid = id
	t.byGID = append(t.byGID, s.entries[e].set)
	return id, false
}

// dropIndex releases every shard's hash index once interning is over. The
// shard arenas, which hold the sets byGID points into, stay.
func (t *internTable) dropIndex() {
	for i := range t.shards {
		t.shards[i].buckets, t.shards[i].entries = nil, nil
	}
}

// get returns the canonical pairset for an interned ID. The caller must not
// mutate it.
func (t *internTable) get(id int32) pairset { return t.byGID[id] }

// counts aggregates the per-shard probe counters.
func (t *internTable) counts() (lookups, hits int) {
	for i := range t.shards {
		lookups += t.shards[i].lookups
		hits += t.shards[i].hits
	}
	return lookups, hits
}

// bytes is the total reserved arena storage across shards.
func (t *internTable) bytes() int64 {
	var n int64
	for i := range t.shards {
		n += t.shards[i].arena.reserved
	}
	return n
}

// memoFail is the seedMemo result recording that the closure of a seed set
// violates ok.J — the transition is omitted, no state exists.
const memoFail int32 = -2

// seedMemo interns canonical φ-step seed sets and maps each to the
// canonical ID of its closure (or memoFail). Written only on the sequential
// renumbering path of a merge batch; read concurrently by expansion workers
// during the next batch — the phases never overlap, so no locking. Soundness
// rests on the closure being a pure function of the seed set: the key is
// the full canonical seed set, and under a demand-driven environment the
// closure itself forces whatever expansion it needs, so the memoized result
// is independent of how much of the environment was materialized when it
// was first computed.
type seedMemo struct {
	buckets map[uint64][]int32
	seeds   []pairset
	res     []int32 // canonical state ID, or memoFail
	arena   *pairArena
}

func newSeedMemo() *seedMemo {
	return &seedMemo{buckets: make(map[uint64][]int32), arena: newPairArena()}
}

// lookup returns the memoized closure result for a canonical seed set.
func (m *seedMemo) lookup(seeds pairset, h uint64) (res int32, found bool) {
	for _, cand := range m.buckets[h] {
		if m.seeds[cand].equal(seeds) {
			return m.res[cand], true
		}
	}
	return 0, false
}

// put records seed → res, copying the seed set into the memo arena. A
// duplicate put (two φ results in one batch sharing a new seed set) is
// ignored: both computed the same closure, so the existing entry already
// holds the same result.
func (m *seedMemo) put(seeds pairset, h uint64, res int32) {
	for _, cand := range m.buckets[h] {
		if m.seeds[cand].equal(seeds) {
			return
		}
	}
	i := int32(len(m.seeds))
	m.seeds = append(m.seeds, m.arena.place(seeds))
	m.res = append(m.res, res)
	m.buckets[h] = append(m.buckets[h], i)
}

func (m *seedMemo) bytes() int64 { return m.arena.reserved }
