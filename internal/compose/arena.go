// Append-only row arenas for the demand-driven composite.
//
// Lazy used to publish each expanded row as two exact-size heap slices
// (append([]Edge(nil), ...)): one allocation per row per kind, which at
// million-state scale is the dominant alloc churn of the whole derivation
// (and a steady GC scan load, since every row header is a separate object).
// The arena replaces that with chunked append-only storage: a published row
// is a sub-slice of a large chunk, so a million rows cost a few hundred
// chunk allocations, the headers stay in the fixed-location page directory,
// and the backing memory is contiguous enough for the safety phase's
// closure walk to stream through.
//
// Arenas are single-writer (Lazy.expand runs under Lazy.mu); readers only
// ever see a row after its done flag is published, by which point the
// sub-slice contents are immutable — chunks are never reallocated, only new
// chunks appended, so published sub-slices never move.
package compose

// arenaChunk caps the chunk capacity in elements. 1<<14 edges is 128 KiB
// per chunk — large enough to amortize allocation at million-state scale.
const arenaChunk = 1 << 14

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

// rowArena owns the backing storage of all published rows of one Lazy.
type rowArena struct {
	edgeChunks [][]Edge
	intChunks  [][]int32
	bytes      int64 // total reserved chunk bytes
}

// allocEdges returns a length-n sub-slice of chunk storage for the caller
// to fill before publication. n == 0 returns nil.
func (ar *rowArena) allocEdges(n int) []Edge {
	if n == 0 {
		return nil
	}
	last := len(ar.edgeChunks) - 1
	if last < 0 || cap(ar.edgeChunks[last])-len(ar.edgeChunks[last]) < n {
		c := max(chunkSize(len(ar.edgeChunks)), n)
		ar.edgeChunks = append(ar.edgeChunks, make([]Edge, 0, c))
		ar.bytes += int64(c) * 8 // sizeof(Edge)
		last++
	}
	chunk := ar.edgeChunks[last]
	out := chunk[len(chunk) : len(chunk)+n]
	ar.edgeChunks[last] = chunk[:len(chunk)+n]
	return out
}

// allocInts is allocEdges for internal-successor rows.
func (ar *rowArena) allocInts(n int) []int32 {
	if n == 0 {
		return nil
	}
	last := len(ar.intChunks) - 1
	if last < 0 || cap(ar.intChunks[last])-len(ar.intChunks[last]) < n {
		c := max(chunkSize(len(ar.intChunks)), n)
		ar.intChunks = append(ar.intChunks, make([]int32, 0, c))
		ar.bytes += int64(c) * 4
		last++
	}
	chunk := ar.intChunks[last]
	out := chunk[len(chunk) : len(chunk)+n]
	ar.intChunks[last] = chunk[:len(chunk)+n]
	return out
}
