// Tuple interning for the demand-driven composition.
//
// LazyMany assigns composite state ids by interning the component-state
// tuple of each discovered state. The key scheme is tiered:
//
//   - mixed-radix uint64 key + paged direct-mapped array when the full
//     product count is at most denseInternLimit: one indexed load per
//     lookup, with pages allocated only for the key ranges the exploration
//     actually touches (a demand-driven walk of a 2^28-state product may
//     touch a few thousand pages out of tens of thousands);
//   - mixed-radix uint64 key + hash map when the product fits a uint64 but
//     exceeds the dense limit;
//   - string key over the raw tuple bytes when the product overflows uint64
//     entirely (dozens of components).
package compose

// internPageShift sizes the dense-intern pages: 1<<16 int32 entries =
// 256 KiB per page, allocated on first touch of the key range.
const internPageShift = 16

type tupleIntern struct {
	radices []uint64 // NumStates per component, for the mixed-radix key
	radixOK bool

	pages   [][]int32 // paged direct-mapped by radix key; nil page = untouched
	pageLen int       // entries per page (smaller than a full page only for tiny products)
	seenU   map[uint64]int32
	seenS   map[string]int32
	keyBuf  []byte
}

// newTupleIntern builds the intern for a compiled component list.
func newTupleIntern(tb *compTables, numStates []int) *tupleIntern {
	ti := &tupleIntern{
		radices: make([]uint64, len(numStates)),
		radixOK: tb.radixOK,
		keyBuf:  make([]byte, 4*len(numStates)),
	}
	for i, n := range numStates {
		ti.radices[i] = uint64(n)
	}
	switch {
	case !tb.radixOK:
		ti.seenS = make(map[string]int32)
	case tb.product <= denseInternLimit:
		ti.pages = make([][]int32, (tb.product>>internPageShift)+1)
		ti.pageLen = 1 << internPageShift
		if tb.product < uint64(ti.pageLen) {
			ti.pageLen = int(tb.product) // single partial page
		}
	default:
		ti.seenU = make(map[uint64]int32)
	}
	return ti
}

// intern returns the id of the composite state with the given component
// tuple. If the tuple is new it is assigned the id next and isNew is true
// (the caller records the tuple under that id). Not safe for concurrent
// use; Lazy serializes on its mutex.
func (ti *tupleIntern) intern(tuple []int32, next int32) (id int32, isNew bool) {
	if ti.radixOK {
		key := uint64(0)
		for ci, s := range tuple {
			key = key*ti.radices[ci] + uint64(s)
		}
		if ti.pages != nil {
			pg := ti.pages[key>>internPageShift]
			if pg == nil {
				pg = make([]int32, ti.pageLen)
				for i := range pg {
					pg[i] = -1
				}
				ti.pages[key>>internPageShift] = pg
			}
			slot := &pg[key&(1<<internPageShift-1)]
			if *slot >= 0 {
				return *slot, false
			}
			*slot = next
			return next, true
		}
		if id, ok := ti.seenU[key]; ok {
			return id, false
		}
		ti.seenU[key] = next
		return next, true
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
	ti.seenS[string(ti.keyBuf)] = next
	return next, true
}
