// Demand-driven n-way composition: the product is expanded one state at a
// time, when a consumer first asks for that state's successors.
//
// Building the whole reachable product up front wastes most of the work on
// large systems, because the quotient algorithm's safety phase only ever
// walks the composite states reachable under the converter being built (the
// paper's h.r sets) — the standard on-the-fly construction argument from the
// reachability-analysis literature. Lazy compiles the component tables and
// interns component-state tuples over integer ids, never building a
// pairwise intermediate product, and does no up-front sweep: a state's edge
// rows are computed inside Rows on first demand, under a mutex, and then
// published through an atomic flag so every later read is lock-free.
//
// State ids are assigned in demand order, so they depend on which consumer
// asked first — under a parallel deriver that is scheduling-dependent. The
// ids are private renamings of the same product, and everything the engine
// emits (converter structure, pair sets as sets, expansion counts) is
// invariant under renaming; only the raw ids themselves are not stable
// across runs.
package compose

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"protoquot/internal/spec"
)

// Edge is one external transition of a composite, with the event resolved
// to an index into the composite's external alphabet (Alphabet()). Keeping
// the event as a dense index lets the deriver consume composite edges with
// no per-edge map lookups; the external alphabet is sorted, so integer Ev
// order is event-name order.
type Edge struct {
	Ev int32 // index into Alphabet()
	To int32
}

// Rows are stored in fixed-location pages so a published record never
// moves when the directory grows.
const (
	lazyPageShift = 10
	lazyPageSize  = 1 << lazyPageShift
)

// lazyRow is one state's row record, 16 bytes: the arena refs of its
// external edges and internal successors and their lengths. nIntl holds the
// internal count plus one and publishes the record: it is stored (with
// release semantics) only after the other fields and the arena contents are
// written, so any reader that loads a nonzero nIntl sees the completed row
// without taking the expansion lock. Zero means not yet expanded.
type lazyRow struct {
	ext, intl uint32
	nExt      uint32
	nIntl     atomic.Uint32
}

type lazyPage [lazyPageSize]lazyRow

// Lazy is a demand-driven composite: the reachable product of n components,
// expanded state by state as consumers ask for successors. It implements
// core.Environment, plus the demand-side surface the fused deriver uses:
// Rows, PeekRows, ExpansionStats.
//
// All methods are safe for concurrent use. Reads of already-expanded rows
// are lock-free; first-demand expansion serializes on an internal mutex.
type Lazy struct {
	comps []*spec.Spec
	name  string
	k     int
	tb    *compTables

	eventSet map[spec.Event]struct{}

	// dir is the grow-only page directory: a page is appended (under mu)
	// and the grown header swapped in atomically, so readers never see a
	// partially grown directory.
	dir atomic.Pointer[[]*lazyPage]

	discovered atomic.Int64

	// mu guards discovery and expansion: the state intern, the row arenas,
	// the name cache, the scratch buffers and the expansion counters.
	mu       sync.Mutex
	expanded int64
	// The expansion timer's sample: sampleAt is the expansion timed in the
	// current block of sampleEvery, drawn from sampleRng; sampled counts
	// the timed expansions and sampleNs their total wall time, which
	// ExpansionStats scales to an estimate for all of them.
	sampleAt  int64
	sampleRng uint64
	sampled   int64
	sampleNs  int64
	ti        *stateIntern
	arena     rowArena
	peakRow   int64   // largest single published row, in bytes
	tuple     []int32 // the expanding state's decoded component tuple
	succBuf   []int32 // a successor's tuple, on the string tier
	extBuf    []Edge  // expansion staging; published rows are arena sub-slices
	intlBuf   []int32
	names     map[spec.State]string // StateName's cache, filled on demand
}

// LazyMany builds the demand-driven composition of the components. It
// accepts exactly the component lists Many accepts (pairwise-disjoint
// interfaces) and represents the same machine; only the init state is
// interned up front. Events shared by exactly two components synchronize and
// become internal; events owned by one remain external.
func LazyMany(components ...*spec.Spec) (*Lazy, error) {
	return lazyMany(components, -1)
}

// lazyMany is LazyMany with the intern tier forced when tier >= 0, so tests
// can drive every tier on small inputs.
func lazyMany(components []*spec.Spec, tier internTier) (*Lazy, error) {
	if len(components) == 0 {
		return nil, fmt.Errorf("compose: no components")
	}
	tb, err := compileComponents(components)
	if err != nil {
		return nil, err
	}
	if tier < 0 {
		tier = tierOf(tb)
	}
	numStates := make([]int, len(components))
	for i, c := range components {
		numStates[i] = c.NumStates()
	}
	ti := newStateIntern(tb, numStates, tier)
	if ti.weights != nil {
		tb.weigh(ti.weights)
	}
	x := &Lazy{
		comps:    components,
		name:     foldName(components),
		k:        len(components),
		tb:       tb,
		eventSet: make(map[spec.Event]struct{}, len(tb.external)),
		ti:       ti,
		tuple:    make([]int32, len(components)),
		succBuf:  make([]int32, len(components)),
		names:    make(map[spec.State]string),
	}
	for _, e := range tb.external {
		x.eventSet[e] = struct{}{}
	}
	empty := []*lazyPage{}
	x.dir.Store(&empty)
	x.arena.init()
	initTuple := make([]int32, x.k)
	for ci, c := range components {
		initTuple[ci] = int32(c.Init())
	}
	x.mu.Lock()
	x.ti.intern(initTuple) // id 0 = composite init
	x.pageLocked(0)
	x.discovered.Store(1)
	x.mu.Unlock()
	return x, nil
}

// MustLazyMany is LazyMany that panics on error.
func MustLazyMany(components ...*spec.Spec) *Lazy {
	x, err := LazyMany(components...)
	if err != nil {
		panic(err)
	}
	return x
}

// foldName is the composite name of the pairwise left fold, e.g.
// "((A||B)||C)": the name Many's Spec and oracle.Compose carry.
func foldName(components []*spec.Spec) string {
	name := components[0].Name()
	for _, c := range components[1:] {
		name = fmt.Sprintf("(%s||%s)", name, c.Name())
	}
	return name
}

// pageLocked allocates the row slot of id, which interning just assigned
// to a new state. Ids are assigned consecutively, so a page is added
// exactly when id is the first of one. Caller holds mu.
func (x *Lazy) pageLocked(id int32) {
	if id&(lazyPageSize-1) == 0 {
		publish(&x.dir, new(lazyPage))
	}
}

// succLocked interns the successor of the expanding state in which
// component ci moves to to and, when pj >= 0, component pj moves to toJ.
// On the key tiers key is the successor's key, the parent's plus the
// moves' deltas, so no tuple is touched; on the string tier key is unused
// and the successor's tuple is built from the parent's. Caller holds mu.
func (x *Lazy) succLocked(key uint64, ci int, to int32, pj int32, toJ int32) int32 {
	var id int32
	var isNew bool
	if x.ti.weights != nil {
		id, isNew = x.ti.internKey(key)
	} else {
		copy(x.succBuf, x.tuple)
		x.succBuf[ci] = to
		if pj >= 0 {
			x.succBuf[pj] = toJ
		}
		id, isNew = x.ti.intern(x.succBuf)
	}
	if isNew {
		x.pageLocked(id)
	}
	return id
}

func (x *Lazy) row(st int32) *lazyRow {
	dir := *x.dir.Load()
	return &dir[st>>lazyPageShift][st&(lazyPageSize-1)]
}

// Rows returns st's external edges (sorted by (Ev, To), deduplicated) and
// internal successors (sorted ascending, deduplicated), expanding the state
// on first demand. The caller must not modify the returned slices.
func (x *Lazy) Rows(st spec.State) ([]Edge, []int32) {
	r := x.row(int32(st))
	if n := r.nIntl.Load(); n != 0 {
		return x.rowSlices(r, n-1)
	}
	return x.expand(int32(st))
}

// PeekRows is Rows without the expansion: it returns the rows if st has
// already been expanded, and (nil, nil, false) otherwise.
func (x *Lazy) PeekRows(st spec.State) ([]Edge, []int32, bool) {
	r := x.row(int32(st))
	if n := r.nIntl.Load(); n != 0 {
		ext, intl := x.rowSlices(r, n-1)
		return ext, intl, true
	}
	return nil, nil, false
}

// rowSlices resolves a published record with nIntl internal successors to
// its arena slices.
func (x *Lazy) rowSlices(r *lazyRow, nIntl uint32) ([]Edge, []int32) {
	return x.arena.edges.get(r.ext, r.nExt), x.arena.ints.get(r.intl, nIntl)
}

// sampleEvery is the expansion timer's sampling period: one expansion in
// each block of sampleEvery is timed, the first expansion of the first
// block and a pseudo-random one of every later block, and ExpansionStats
// scales their total. Reading the clock twice costs 110–140 ns on a 2-core
// x86-64 VM, about a fifth of an expansion of ring(6). The offset is drawn
// because expansion cost can repeat in expansion order: on chaindrop(8)
// the expansions at multiples of 64 cost 2.4–2.8× the average, and timing
// only those overstated its expansion time 2.5–2.9×.
const sampleEvery = 64

func (x *Lazy) expand(st int32) ([]Edge, []int32) {
	x.mu.Lock()
	r := x.row(st)
	if n := r.nIntl.Load(); n != 0 {
		x.mu.Unlock()
		return x.rowSlices(r, n-1)
	}
	sample := x.expanded == x.sampleAt
	var start time.Time
	if sample {
		start = time.Now()
	}
	tuple := x.tuple
	x.ti.decode(st, tuple)
	var key uint64
	if x.ti.weights != nil {
		key = x.ti.keys[st]
	}
	ext := x.extBuf[:0]
	intl := x.intlBuf[:0]
	tb := x.tb
	rows, moves := tb.rows, tb.moves
	for ci, b := range tb.base {
		cr := &rows[b+tuple[ci]]
		for i := cr.intl; i < cr.drive; i++ {
			m := &moves[i]
			intl = append(intl, x.succLocked(key+m.delta, ci, m.to, -1, 0))
		}
		for i := cr.drive; i < cr.answer; i++ {
			m := &moves[i]
			if m.pj < 0 {
				q := x.succLocked(key+m.delta, ci, m.to, -1, 0)
				ext = append(ext, Edge{Ev: m.ev, To: q})
				continue
			}
			pr := &rows[tb.base[m.pj]+tuple[m.pj]]
			for j := pr.answer; j < pr.end; j++ {
				if p := &moves[j]; p.ev == m.ev {
					intl = append(intl, x.succLocked(key+m.delta+p.delta, ci, m.to, m.pj, p.to))
				}
			}
		}
	}
	sortEdges(ext)
	ext = dedupeEdges(ext)
	slices.Sort(intl)
	intl = dedupeInt32s(intl)
	// Copy into the arena and publish the refs; the staging buffers (and
	// their grown capacity) are reused by the next expansion, so they must
	// never leak to a caller. Arena chunks never move, so a published row
	// resolves to the same slices for the Lazy's lifetime.
	r.ext, r.intl = x.arena.place(ext, intl)
	r.nExt = uint32(len(ext))
	x.extBuf, x.intlBuf = ext[:0], intl[:0]
	if rb := int64(len(ext))*8 + int64(len(intl))*4; rb > x.peakRow {
		x.peakRow = rb
	}
	x.discovered.Store(int64(x.ti.len()))
	r.nIntl.Store(uint32(len(intl)) + 1) // publish: must follow every write above
	x.expanded++
	if sample {
		x.sampled++
		x.sampleNs += time.Since(start).Nanoseconds()
	}
	if x.expanded%sampleEvery == 0 {
		// A 64-bit LCG step; its high bits pick the next block's offset.
		x.sampleRng = x.sampleRng*6364136223846793005 + 1442695040888963407
		x.sampleAt = x.expanded + int64(x.sampleRng>>32%sampleEvery)
	}
	x.mu.Unlock()
	return x.rowSlices(r, uint32(len(intl)))
}

// shortRow is the longest row sortEdges sorts by insertion. Rows are
// nearly always that short, and there the inline comparison beats
// slices.SortFunc's call per comparison.
const shortRow = 16

// sortEdges sorts a row's edges by (Ev, To).
func sortEdges(edges []Edge) {
	if len(edges) > shortRow {
		slices.SortFunc(edges, func(a, b Edge) int {
			if a.Ev != b.Ev {
				return int(a.Ev) - int(b.Ev)
			}
			return int(a.To) - int(b.To)
		})
		return
	}
	for i := 1; i < len(edges); i++ {
		e := edges[i]
		j := i
		for ; j > 0 && (edges[j-1].Ev > e.Ev || edges[j-1].Ev == e.Ev && edges[j-1].To > e.To); j-- {
			edges[j] = edges[j-1]
		}
		edges[j] = e
	}
}

func dedupeEdges(edges []Edge) []Edge {
	if len(edges) == 0 {
		return edges
	}
	out := edges[:1]
	for _, ed := range edges[1:] {
		if ed != out[len(out)-1] {
			out = append(out, ed)
		}
	}
	return out
}

func dedupeInt32s(xs []int32) []int32 {
	if len(xs) == 0 {
		return xs
	}
	out := xs[:1]
	for _, t := range xs[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// ExpansionStats reports how much of the product has been touched: states
// whose successor rows were computed, states discovered (expanded states
// plus the frontier they revealed), and the nanoseconds spent expanding.
// The time is an estimate: one expansion in each block of sampleEvery is
// timed, and the sampled total is scaled by expanded ÷ sampled.
func (x *Lazy) ExpansionStats() (expanded, discovered int, ns int64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.sampled > 0 {
		ns = x.sampleNs * x.expanded / x.sampled
	}
	return int(x.expanded), int(x.discovered.Load()), ns
}

// MemStats is a demand-driven composite's storage footprint, in bytes.
type MemStats struct {
	Arena   int64 // reserved by the row arenas
	Records int64 // the row-record pages
	Intern  int64 // state identity: the key array and the intern index
	PeakRow int64 // the largest single published row: 8 per edge, 4 per successor
}

// MemStats reports the composite's storage footprint. The deriver surfaces
// it through core.Metrics.
func (x *Lazy) MemStats() MemStats {
	x.mu.Lock()
	defer x.mu.Unlock()
	return MemStats{
		Arena:   x.arena.bytes(),
		Records: int64(len(*x.dir.Load())) * int64(unsafe.Sizeof(lazyPage{})),
		Intern:  x.ti.bytes(),
		PeakRow: x.peakRow,
	}
}

// Name returns the composite name, matching what Many would produce.
func (x *Lazy) Name() string { return x.name }

// NumStates returns the number of composite states discovered so far. It
// grows as the product is explored; it is the full reachable count only
// once exploration has saturated.
func (x *Lazy) NumStates() int { return int(x.discovered.Load()) }

// Init returns the composite initial state (always 0: the first intern).
func (x *Lazy) Init() spec.State { return 0 }

// Alphabet returns the composite's external alphabet, sorted. Edge.Ev
// indexes this slice.
func (x *Lazy) Alphabet() []spec.Event { return x.tb.external }

// HasEvent reports whether e is in the composite's external alphabet.
func (x *Lazy) HasEvent(e spec.Event) bool {
	_, ok := x.eventSet[e]
	return ok
}

// ExtEdges returns st's external transitions, sorted by (Event, To),
// expanding st on demand. This is the core.Environment surface, used by
// diagnostics and by Spec; the deriver reads Rows. The returned slice is a
// fresh copy.
func (x *Lazy) ExtEdges(st spec.State) []spec.ExtEdge {
	ext, _ := x.Rows(st)
	out := make([]spec.ExtEdge, len(ext))
	for i, ed := range ext {
		out[i] = spec.ExtEdge{Event: x.tb.external[ed.Ev], To: spec.State(ed.To)}
	}
	return out
}

// IntEdges returns st's internal successors, sorted ascending, expanding st
// on demand. See ExtEdges.
func (x *Lazy) IntEdges(st spec.State) []spec.State {
	_, intl := x.Rows(st)
	out := make([]spec.State, len(intl))
	for i, t := range intl {
		out[i] = spec.State(t)
	}
	return out
}

// Components returns the component list the composite was built from. The
// caller must not modify it.
func (x *Lazy) Components() []*spec.Spec { return x.comps }

// StateName materializes st's composite name ("a|b|c"), caching it.
func (x *Lazy) StateName(st spec.State) string {
	x.mu.Lock()
	defer x.mu.Unlock()
	if n, ok := x.names[st]; ok {
		return n
	}
	n := x.nameLocked(st)
	x.names[st] = n
	return n
}

// nameLocked builds st's composite name from its decoded tuple. Caller
// holds mu.
func (x *Lazy) nameLocked(st spec.State) string {
	tuple := make([]int32, x.k)
	x.ti.decode(int32(st), tuple)
	buf := make([]byte, 0, 8*x.k)
	for ci, c := range x.comps {
		if ci > 0 {
			buf = append(buf, StateSep...)
		}
		buf = append(buf, c.StateName(spec.State(tuple[ci]))...)
	}
	return string(buf)
}

// Spec saturates the product (expanding every reachable state) and
// materializes it as an eager *spec.Spec: the body of Many, and the bridge
// to consumers needing the full Spec surface (Format, .dot rendering, sat
// checks). States keep this Lazy's ids: when Spec is the first consumer
// they are breadth-first from the initial state, and after a deriver they
// follow its demand order.
func (x *Lazy) Spec() (*spec.Spec, error) {
	for st := 0; st < x.NumStates(); st++ { // NumStates grows as we expand
		x.Rows(spec.State(st))
	}
	n := x.NumStates()
	d := spec.Dense{
		Name:       x.name,
		StateNames: make([]string, n),
		Init:       0,
		Alphabet:   x.tb.external,
		Ext:        make([][]spec.ExtEdge, n),
		Int:        make([][]spec.State, n),
	}
	x.mu.Lock()
	for st := 0; st < n; st++ {
		d.StateNames[st] = x.nameLocked(spec.State(st))
	}
	x.mu.Unlock()
	for st := 0; st < n; st++ {
		d.Ext[st] = x.ExtEdges(spec.State(st))
		d.Int[st] = x.IntEdges(spec.State(st))
	}
	return spec.FromDense(d)
}
