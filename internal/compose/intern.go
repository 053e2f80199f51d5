// State interning for the demand-driven composition.
//
// LazyMany assigns composite state ids in discovery order and keeps, per
// id, just enough to recover the component-state tuple. The scheme is
// tiered on the tuple count, the product of the component state counts:
//
//   - tierDense: a uint64 key per state, looked up in a paged
//     direct-mapped array when the product is at most denseInternLimit:
//     one indexed load per lookup, with pages allocated only for the key
//     ranges the exploration actually touches (a demand-driven walk of a
//     2^28 key space may touch a few thousand pages out of tens of
//     thousands);
//   - tierHashed: the same key per state, looked up in an open-addressed
//     table of state ids over the key array, when the key fits a uint64
//     but the product exceeds the dense limit;
//   - tierString: the raw k-int32 tuple per state, looked up in a map keyed
//     by the tuple bytes, when no key fits a uint64 (dozens of
//     components).
//
// On the key tiers a state costs one uint64 of identity, and a successor's
// key is the parent's plus (to − from)·weight per moved component, so
// interning a successor touches no tuple memory at all. The key is laid
// out as bit fields whenever they fit the tier: component ci's state
// occupies bits.Len(NumStates−1) bits at a fixed shift, the first
// component most significant, and the tuple is decoded with one shift and
// mask per component. A component whose state count is not a power of two
// leaves part of its field unused, so the dense tier's pages hold ids no
// state can take. When the fields are wider than the tier allows (more
// than denseKeyBits on the dense tier, more than 64 on the hashed tier)
// the key is mixed-radix instead, weights are products of state counts
// and decode divides, so no composition takes a slower tier for the sake
// of the cheaper decode.
package compose

import "math/bits"

type internTier int

const (
	tierDense internTier = iota
	tierHashed
	tierString
)

// tierOf picks the intern tier for a compiled component list. A product
// past uint64 with a 64-bit-wide bit-field key is exactly 2^64 (every
// state count a power of two): its keys still fit.
func tierOf(tb *compTables) internTier {
	switch {
	case tb.productOK && tb.product <= denseInternLimit:
		return tierDense
	case tb.productOK || tb.keyBits <= 64:
		return tierHashed
	default:
		return tierString
	}
}

// internPageShift sizes the dense-intern pages: 1<<16 int32 entries =
// 256 KiB per page, allocated on first touch of the key range.
const internPageShift = 16

// hashFirstSlots is the hashed tier's initial table size. The table doubles
// whenever it would pass half full, so growth costs O(states) in total; a
// small start keeps a composite that stays small small.
const hashFirstSlots = 1 << 4

// stateIntern maps composite states to dense ids and back. Not safe for
// concurrent use; Lazy serializes on its mutex.
type stateIntern struct {
	k int
	// weights[ci] is component ci's place value in the key: a tuple's key
	// is Σ tuple[ci]·weights[ci], the first component most significant.
	// nil on the string tier. In the bit-field layout every weight is a
	// power of two, shifts[ci] is its log2 and masks[ci] the field's ones;
	// in the mixed-radix layout shifts is nil and radices[ci] is the
	// component's state count.
	weights []uint64
	shifts  []uint8
	masks   []uint64
	radices []uint64
	keys    []uint64 // by state id; key tiers

	// tierDense: paged direct-mapped by key, a slot holding its state's
	// id+1 (0 = empty, so a new page needs no fill); nil page = untouched.
	pages   [][]int32
	pageLen int // entries per page (smaller than a full page only for a tiny key space)

	slots []int32 // tierHashed: open-addressed state ids, -1 = empty
	shift uint    // 64 − log2(len(slots)), for Fibonacci hashing

	tuples []int32 // tierString: k values per state id
	seenS  map[string]int32
	keyBuf []byte
}

// newStateIntern builds an empty intern of the given tier for a compiled
// component list, with bit fields when they fit the tier.
func newStateIntern(tb *compTables, numStates []int, tier internTier) *stateIntern {
	k := len(numStates)
	ti := &stateIntern{k: k}
	bitFields := tb.keyBits <= 64
	switch tier {
	case tierString:
		ti.seenS = make(map[string]int32)
		ti.keyBuf = make([]byte, 4*k)
		return ti
	case tierDense:
		bitFields = tb.keyBits <= denseKeyBits
		space := tb.product
		if bitFields {
			space = 1 << tb.keyBits
		}
		ti.pages = make([][]int32, (space>>internPageShift)+1)
		ti.pageLen = int(min(space, 1<<internPageShift)) // one partial page for a tiny space
	case tierHashed:
		ti.rehash(hashFirstSlots)
	}
	ti.weights = make([]uint64, k)
	if !bitFields {
		ti.radices = make([]uint64, k)
		w := uint64(1)
		for ci := k - 1; ci >= 0; ci-- {
			ti.weights[ci] = w
			ti.radices[ci] = uint64(numStates[ci])
			w *= ti.radices[ci]
		}
		return ti
	}
	ti.shifts = make([]uint8, k)
	ti.masks = make([]uint64, k)
	shift := 0
	for ci := k - 1; ci >= 0; ci-- {
		width := bits.Len(uint(numStates[ci] - 1))
		ti.weights[ci] = 1 << shift
		ti.shifts[ci] = uint8(shift)
		ti.masks[ci] = 1<<width - 1
		shift += width
	}
	return ti
}

// keyOf returns a tuple's key. Key tiers only.
func (ti *stateIntern) keyOf(tuple []int32) uint64 {
	key := uint64(0)
	for ci, s := range tuple {
		key += uint64(s) * ti.weights[ci]
	}
	return key
}

// decode writes state id's component tuple into dst (len k).
func (ti *stateIntern) decode(id int32, dst []int32) {
	switch {
	case ti.shifts != nil:
		key := ti.keys[id]
		for ci, sh := range ti.shifts {
			dst[ci] = int32(key >> sh & ti.masks[ci])
		}
	case ti.weights != nil:
		key := ti.keys[id]
		for ci := ti.k - 1; ci >= 0; ci-- {
			r := ti.radices[ci]
			dst[ci] = int32(key % r)
			key /= r
		}
	default:
		copy(dst, ti.tuples[int(id)*ti.k:int(id)*ti.k+ti.k])
	}
}

// len is the number of states interned.
func (ti *stateIntern) len() int {
	if ti.weights != nil {
		return len(ti.keys)
	}
	return len(ti.tuples) / ti.k
}

// intern returns the id of the composite state with the given component
// tuple, assigning the next id when the tuple is new (isNew).
func (ti *stateIntern) intern(tuple []int32) (id int32, isNew bool) {
	if ti.weights != nil {
		return ti.internKey(ti.keyOf(tuple))
	}
	for ci, s := range tuple {
		ti.keyBuf[4*ci] = byte(s)
		ti.keyBuf[4*ci+1] = byte(s >> 8)
		ti.keyBuf[4*ci+2] = byte(s >> 16)
		ti.keyBuf[4*ci+3] = byte(s >> 24)
	}
	if id, ok := ti.seenS[string(ti.keyBuf)]; ok {
		return id, false
	}
	id = int32(len(ti.tuples) / ti.k)
	ti.seenS[string(ti.keyBuf)] = id
	ti.tuples = appendDoubling(ti.tuples, tuple...)
	return id, true
}

// internKey is intern for a state given by its key. Key tiers only.
func (ti *stateIntern) internKey(key uint64) (id int32, isNew bool) {
	next := int32(len(ti.keys))
	if ti.pages != nil {
		pg := ti.pages[key>>internPageShift]
		if pg == nil {
			pg = make([]int32, ti.pageLen)
			ti.pages[key>>internPageShift] = pg
		}
		slot := &pg[key&(1<<internPageShift-1)]
		if *slot > 0 {
			return *slot - 1, false
		}
		*slot = next + 1
		ti.keys = appendDoubling(ti.keys, key)
		return next, true
	}
	mask := uint64(len(ti.slots) - 1)
	for h := (key * 0x9e3779b97f4a7c15) >> ti.shift; ; h = (h + 1) & mask {
		id := ti.slots[h]
		if id < 0 {
			ti.slots[h] = next
			ti.keys = appendDoubling(ti.keys, key)
			if 2*len(ti.keys) > len(ti.slots) {
				ti.rehash(2 * len(ti.slots))
			}
			return next, true
		}
		if ti.keys[id] == key {
			return id, false
		}
	}
}

// bytes is the intern's reserved storage: the per-state keys or tuples and
// the index over them (the string tier's map is not counted).
func (ti *stateIntern) bytes() int64 {
	n := 8*int64(cap(ti.keys)) + 4*int64(cap(ti.slots)) + 4*int64(cap(ti.tuples)) +
		24*int64(cap(ti.pages))
	for _, pg := range ti.pages {
		n += 4 * int64(cap(pg))
	}
	return n
}

// rehash rebuilds the hashed tier's table at n slots (a power of two) from
// the key array.
func (ti *stateIntern) rehash(n int) {
	ti.slots = make([]int32, n)
	for i := range ti.slots {
		ti.slots[i] = -1
	}
	ti.shift = 64
	for s := n; s > 1; s >>= 1 {
		ti.shift--
	}
	mask := uint64(n - 1)
	for id, key := range ti.keys {
		h := (key * 0x9e3779b97f4a7c15) >> ti.shift
		for ti.slots[h] >= 0 {
			h = (h + 1) & mask
		}
		ti.slots[h] = int32(id)
	}
}

// appendDoubling is append with explicit doubling: append's ~1.25× growth
// curve for large slices costs ~5× the final size in cumulative
// allocation, and at a million discovered states the per-state spine
// dominates the composition's alloc_bytes.
func appendDoubling[T any](s []T, vs ...T) []T {
	if need := len(s) + len(vs); need > cap(s) {
		grown := make([]T, len(s), max(2*cap(s), need, 256))
		copy(grown, s)
		s = grown
	}
	return append(s, vs...)
}
