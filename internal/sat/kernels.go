// 64-bit word-parallel mask kernels.
//
// The progress phase of the quotient engine spends its time combining and
// testing ready-set masks: unioning successor masks into a τ*-closure,
// testing acceptance candidates against ready masks, and rebuilding base
// masks after invalidation; the safety phase hashes and compares canonical
// pair sets. These kernels are the shared, word-at-a-time primitives for
// that work — each processes whole uint64 words (64 states or events per
// operation) with no per-bit branching.
package sat

import "math/bits"

// MaskSubset reports a ⊆ b for equal-stride masks.
func MaskSubset(a, b []uint64) bool {
	for w := range a {
		if a[w]&^b[w] != 0 {
			return false
		}
	}
	return true
}

// OrInto unions src into dst word-parallel: dst |= src. The masks must have
// equal stride, which is 0 when the alphabet is empty.
func OrInto(dst, src []uint64) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1] // one bounds check for the whole loop
	for w := range src {
		dst[w] |= src[w]
	}
}

// Popcount returns the number of set bits across the mask.
func Popcount(m []uint64) int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// WordsEqual reports a == b word for word. Equal-length slices only by
// contract of the callers (canonical pair sets compare only against equal
// hashes, but a length mismatch still answers false, not out-of-bounds).
// The 8-way unrolled body XOR-ORs a whole cache line per iteration with a
// single branch, which matters because the safety phase's intern probe is
// one hash index plus one WordsEqual over multi-thousand-word sets.
func WordsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	i := 0
	for ; i+8 <= len(a); i += 8 {
		av, bv := a[i:i+8], b[i:i+8]
		d := (av[0] ^ bv[0]) | (av[1] ^ bv[1]) | (av[2] ^ bv[2]) | (av[3] ^ bv[3]) |
			(av[4] ^ bv[4]) | (av[5] ^ bv[5]) | (av[6] ^ bv[6]) | (av[7] ^ bv[7])
		if d != 0 {
			return false
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// HashWords hashes a word slice with four independent FNV-style lanes
// folded through a murmur-style finalizer. The four lanes break the strict
// one-word-per-multiply dependency chain of plain FNV-1a, roughly
// quadrupling hash throughput on the multi-thousand-word pair sets the
// safety phase interns; the finalizer mixes the lanes so single-bit
// differences avalanche across the result. Deterministic (no seed): callers
// shard and bucket by this value and must agree across processes and runs.
func HashWords(ws []uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h0 := uint64(offset64)
	h1 := uint64(offset64 ^ 0x9e3779b97f4a7c15)
	h2 := uint64(offset64 ^ 0xc2b2ae3d27d4eb4f)
	h3 := uint64(offset64 ^ 0x165667b19e3779f9)
	i := 0
	for ; i+4 <= len(ws); i += 4 {
		h0 = (h0 ^ ws[i]) * prime64
		h1 = (h1 ^ ws[i+1]) * prime64
		h2 = (h2 ^ ws[i+2]) * prime64
		h3 = (h3 ^ ws[i+3]) * prime64
	}
	for ; i < len(ws); i++ {
		h0 = (h0 ^ ws[i]) * prime64
	}
	h := h0 ^ (h1 * 31) ^ (h2 * 37) ^ (h3 * 41) ^ uint64(len(ws))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
