// Append-only row arenas for the demand-driven composite.
//
// Lazy used to publish each expanded row as two exact-size heap slices
// (append([]Edge(nil), ...)): one allocation per row per kind, which at
// million-state scale is the dominant alloc churn of the whole derivation
// (and a steady GC scan load, since every row header is a separate object).
// The arena replaces that with chunked append-only storage: a published row
// is a range of a large chunk, so a million rows cost a few hundred chunk
// allocations, and the backing memory is contiguous enough for the safety
// phase's closure walk to stream through.
//
// A row record does not hold slice headers into the chunks. It holds a
// 32-bit ref per kind — chunk index and offset, packed — plus the lengths,
// and the reader resolves the ref through the chunk directory. That keeps a
// record at 16 bytes where two slice headers and a flag took 56.
//
// Arenas are single-writer (Lazy.expand runs under Lazy.mu). A chunk
// directory is published like the page directory: the writer appends the
// new chunk and stores the grown header atomically, and readers load it
// only after loading a published row, so they always see every chunk that
// row's refs name. Chunks are never reallocated, so a resolved row never
// moves.
package compose

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// arenaChunk caps the chunk capacity in elements. 1<<14 edges is 128 KiB
// per chunk — large enough to amortize allocation at million-state scale.
const (
	arenaChunkShift = 14
	arenaChunk      = 1 << arenaChunkShift
)

// A ref packs a row's chunk index above its offset in the chunk. An offset
// is always below arenaChunk: a regular chunk holds at most arenaChunk
// elements, and a row longer than that gets a dedicated chunk at offset 0.
const (
	refOffMask = arenaChunk - 1
	maxChunks  = 1 << (32 - arenaChunkShift)
)

// firstChunk is the capacity, in elements, of each storage kind's first
// chunk.
const firstChunk = 256

// chunkSize is the capacity of a storage kind's k-th chunk: firstChunk
// doubled once per earlier chunk, capped at arenaChunk, so a composite of a
// few hundred states reserves a few KiB rather than two full chunks.
func chunkSize(k int) int {
	c := firstChunk
	for ; k > 0 && c < arenaChunk; k-- {
		c *= 2
	}
	return c
}

// publish appends v to the directory p holds and stores the grown header.
// A reader's earlier snapshot stays valid: append either writes past its
// length or copies to a new array, and never changes an element it can see.
func publish[T any](p *atomic.Pointer[[]T], v T) {
	grown := append(*p.Load(), v)
	p.Store(&grown)
}

// chunkStore is the append-only storage of one element kind.
type chunkStore[T any] struct {
	dir   atomic.Pointer[[][]T] // full-length chunks
	fill  int                   // elements used in the last chunk
	bytes int64                 // total reserved chunk bytes
}

func (cs *chunkStore[T]) init() {
	empty := [][]T{}
	cs.dir.Store(&empty)
}

// put copies vs (non-empty) into the store and returns its ref, for the
// caller to publish.
func (cs *chunkStore[T]) put(vs []T) uint32 {
	n := len(vs)
	dir := *cs.dir.Load()
	k := len(dir)
	if k == 0 || len(dir[k-1])-cs.fill < n {
		if k == maxChunks {
			panic(fmt.Sprintf("compose: row arena needs more than %d chunks", maxChunks))
		}
		c := max(chunkSize(k), n)
		publish(&cs.dir, make([]T, c))
		dir = *cs.dir.Load()
		k++
		cs.fill = 0
		cs.bytes += int64(c) * int64(unsafe.Sizeof(vs[0]))
	}
	off := cs.fill
	cs.fill += n
	copy(dir[k-1][off:], vs)
	return uint32(k-1)<<arenaChunkShift | uint32(off)
}

// get resolves a published ref to its n elements; n == 0 gives nil.
func (cs *chunkStore[T]) get(ref, n uint32) []T {
	if n == 0 {
		return nil
	}
	c := (*cs.dir.Load())[ref>>arenaChunkShift]
	off := ref & refOffMask
	return c[off : off+n : off+n]
}

// rowArena owns the backing storage of all published rows of one Lazy.
type rowArena struct {
	edges chunkStore[Edge]
	ints  chunkStore[int32]
}

func (ar *rowArena) init() {
	ar.edges.init()
	ar.ints.init()
}

// place copies a row's edges and internal successors into the arena and
// returns their refs (0 for an empty kind).
func (ar *rowArena) place(ext []Edge, intl []int32) (extRef, intRef uint32) {
	if len(ext) > 0 {
		extRef = ar.edges.put(ext)
	}
	if len(intl) > 0 {
		intRef = ar.ints.put(intl)
	}
	return extRef, intRef
}

// bytes is the total reserved chunk storage.
func (ar *rowArena) bytes() int64 { return ar.edges.bytes + ar.ints.bytes }
