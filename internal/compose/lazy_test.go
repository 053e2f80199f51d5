package compose

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"protoquot/internal/oracle"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

// namedListing renders a machine as its sorted set of named transitions
// plus header lines — a canonical form that is invariant under state
// renumbering, which is exactly the freedom LazyMany has relative to the
// oracle's pairwise fold.
type namedMachine interface {
	Name() string
	NumStates() int
	Init() spec.State
	Alphabet() []spec.Event
	ExtEdges(spec.State) []spec.ExtEdge
	IntEdges(spec.State) []spec.State
	StateName(spec.State) string
}

func namedListing(m namedMachine) string {
	var lines []string
	for st := 0; st < m.NumStates(); st++ {
		from := m.StateName(spec.State(st))
		for _, ed := range m.ExtEdges(spec.State(st)) {
			lines = append(lines, fmt.Sprintf("%s -%s-> %s", from, ed.Event, m.StateName(ed.To)))
		}
		for _, t := range m.IntEdges(spec.State(st)) {
			lines = append(lines, fmt.Sprintf("%s --> %s", from, m.StateName(t)))
		}
	}
	sort.Strings(lines)
	evs := make([]string, len(m.Alphabet()))
	for i, e := range m.Alphabet() {
		evs[i] = string(e)
	}
	header := []string{
		"name " + m.Name(),
		"init " + m.StateName(m.Init()),
		"events " + strings.Join(evs, " "),
		fmt.Sprintf("states %d", m.NumStates()),
	}
	return strings.Join(append(header, lines...), "\n")
}

// indexedListing renders a Lazy through its index-level surface — Rows,
// whose Edge.Ev indexes Alphabet() — in namedListing's format, so it
// compares directly against namedListing of any machine. Like namedListing,
// it re-reads NumStates every iteration, so the walk saturates the product.
// It also checks the row contract the fused deriver relies on: external
// edges strictly increasing in (Ev, To), internal successors strictly
// ascending, and every index in range.
func indexedListing(t *testing.T, lz *Lazy) string {
	t.Helper()
	alpha := lz.Alphabet()
	var lines []string
	for st := 0; st < lz.NumStates(); st++ {
		from := lz.StateName(spec.State(st))
		ext, intl := lz.Rows(spec.State(st))
		for i, ed := range ext {
			if ed.Ev < 0 || int(ed.Ev) >= len(alpha) || ed.To < 0 || int(ed.To) >= lz.NumStates() {
				t.Fatalf("state %d: edge %+v out of range", st, ed)
			}
			if i > 0 && (ext[i-1].Ev > ed.Ev || ext[i-1].Ev == ed.Ev && ext[i-1].To >= ed.To) {
				t.Fatalf("state %d: external row not strictly sorted by (Ev, To): %v", st, ext)
			}
			lines = append(lines, fmt.Sprintf("%s -%s-> %s", from, alpha[ed.Ev], lz.StateName(spec.State(ed.To))))
		}
		for i, to := range intl {
			if to < 0 || int(to) >= lz.NumStates() {
				t.Fatalf("state %d: internal successor %d out of range", st, to)
			}
			if i > 0 && intl[i-1] >= to {
				t.Fatalf("state %d: internal row not strictly ascending: %v", st, intl)
			}
			lines = append(lines, fmt.Sprintf("%s --> %s", from, lz.StateName(spec.State(to))))
		}
	}
	sort.Strings(lines)
	evs := make([]string, len(alpha))
	for i, e := range alpha {
		evs[i] = string(e)
	}
	header := []string{
		"name " + lz.Name(),
		"init " + lz.StateName(lz.Init()),
		"events " + strings.Join(evs, " "),
		fmt.Sprintf("states %d", lz.NumStates()),
	}
	return strings.Join(append(header, lines...), "\n")
}

// assertLazyMatchesMany saturates a demand-driven composition and asserts
// it is name-isomorphic to the paper's pairwise left fold over the same
// components (oracle.Compose): same composite name, init name, alphabet,
// state count, and set of named transitions. Lazy state ids follow demand
// order rather than the fold's, so the comparison goes through
// namedListing, which is invariant under renumbering. It also checks Many:
// its Spec must hash like the fold's, and a second Many must format
// byte for byte like the first, which pins its numbering.
func assertLazyMatchesMany(t *testing.T, comps ...*spec.Spec) *Lazy {
	t.Helper()
	eager := oracle.Compose(comps...)
	m1, err := Many(comps...)
	if err != nil {
		t.Fatalf("Many: %v", err)
	}
	if got, want := m1.Hash(), eager.Hash(); got != want {
		t.Fatalf("Many hashes %s, the pairwise fold %s\n--- Many ---\n%.2000s\n--- fold ---\n%.2000s",
			got, want, namedListing(m1), namedListing(eager))
	}
	if m2 := MustMany(comps...); m2.Format() != m1.Format() {
		t.Fatalf("two Many calls format differently\n--- first ---\n%.2000s\n--- second ---\n%.2000s", m1.Format(), m2.Format())
	}
	lz, err := LazyMany(comps...)
	if err != nil {
		t.Fatalf("LazyMany: %v", err)
	}
	// namedListing re-reads NumStates every iteration and ExtEdges/IntEdges
	// expand on demand, so walking the listing saturates the product.
	if got, want := namedListing(lz), namedListing(eager); got != want {
		t.Fatalf("lazy composition differs from the pairwise fold\n--- lazy ---\n%.2000s\n--- eager ---\n%.2000s", got, want)
	}
	exp, disc, _ := lz.ExpansionStats()
	if exp != disc || disc != eager.NumStates() {
		t.Fatalf("saturated lazy stats = %d expanded / %d discovered, want both = %d reachable",
			exp, disc, eager.NumStates())
	}
	// The materialized Spec must agree with the Lazy view it came from.
	ls, err := lz.Spec()
	if err != nil {
		t.Fatalf("Lazy.Spec: %v", err)
	}
	if got, want := namedListing(ls), namedListing(lz); got != want {
		t.Fatalf("materialized Spec differs from Lazy view\n--- spec ---\n%.2000s\n--- lazy ---\n%.2000s", got, want)
	}
	return lz
}

// assertIndexedMatchesMany is assertLazyMatchesMany for the index-level
// surface: a fresh LazyMany is saturated through Rows alone, never through
// ExtEdges/IntEdges, and its indexedListing must equal the pairwise fold's
// namedListing.
func assertIndexedMatchesMany(t *testing.T, comps ...*spec.Spec) *Lazy {
	t.Helper()
	eager := oracle.Compose(comps...)
	lz, err := LazyMany(comps...)
	if err != nil {
		t.Fatalf("LazyMany: %v", err)
	}
	if got, want := indexedListing(t, lz), namedListing(eager); got != want {
		t.Fatalf("indexed rows differ from the pairwise fold\n--- indexed ---\n%.2000s\n--- eager ---\n%.2000s", got, want)
	}
	exp, disc, _ := lz.ExpansionStats()
	if exp != disc || disc != eager.NumStates() {
		t.Fatalf("saturated lazy stats = %d expanded / %d discovered, want both = %d reachable",
			exp, disc, eager.NumStates())
	}
	return lz
}

func chanSpec(name, send, recv string) *spec.Spec {
	b := spec.NewBuilder(name)
	b.Init("e").Ext("e", spec.Event(send), "f").Ext("f", spec.Event(recv), "e")
	return b.MustBuild()
}

// basicSystems is a sender alone, the sender with one channel, and a
// sender–channel–channel–receiver chain.
func basicSystems() [][]*spec.Spec {
	snd := spec.NewBuilder("snd")
	snd.Init("s0").Ext("s0", "acc", "s1").Ext("s1", "-x", "s0")
	rcv := spec.NewBuilder("rcv")
	rcv.Init("r0").Ext("r0", "+y", "r1").Ext("r1", "del", "r0")
	return [][]*spec.Spec{
		{snd.MustBuild()},
		{snd.MustBuild(), chanSpec("C", "-x", "+x")},
		{snd.MustBuild(), chanSpec("C", "-x", "+x"), chanSpec("D", "-y", "+y"), rcv.MustBuild()},
	}
}

// randomSystem draws 2–4 random components wired through fresh channel
// alphabets, with private events and internal moves.
func randomSystem(rng *rand.Rand) []*spec.Spec {
	k := 2 + rng.Intn(3)
	comps := make([]*spec.Spec, k)
	for i := range comps {
		b := spec.NewBuilder(fmt.Sprintf("m%d", i))
		n := 2 + rng.Intn(3)
		for s := 0; s < n; s++ {
			b.State(fmt.Sprintf("q%d", s))
		}
		b.Init("q0")
		// Private events.
		for s := 0; s < n; s++ {
			if rng.Intn(2) == 0 {
				b.Ext(fmt.Sprintf("q%d", s), spec.Event(fmt.Sprintf("p%d.%d", i, s)), fmt.Sprintf("q%d", rng.Intn(n)))
			}
			if rng.Intn(3) == 0 {
				b.Int(fmt.Sprintf("q%d", s), fmt.Sprintf("q%d", rng.Intn(n)))
			}
		}
		// Shared events with the next component (pairwise-disjoint by
		// construction: event linkI occurs only in components I-1, I).
		if i > 0 {
			b.Ext("q0", spec.Event(fmt.Sprintf("link%d", i)), fmt.Sprintf("q%d", rng.Intn(n)))
		}
		if i < k-1 {
			b.Ext(fmt.Sprintf("q%d", rng.Intn(n)), spec.Event(fmt.Sprintf("link%d", i+1)), "q0")
		}
		comps[i] = b.MustBuild()
	}
	return comps
}

// TestLazyMatchesIndexedBasic checks the named Environment surface
// (ExtEdges/IntEdges) against the pairwise fold, and against the index-level
// Rows surface of the same Lazy.
func TestLazyMatchesIndexedBasic(t *testing.T) {
	for _, comps := range basicSystems() {
		lz := assertLazyMatchesMany(t, comps...)
		if lz.Init() != 0 {
			t.Errorf("lazy init = %d, want 0", lz.Init())
		}
		if got, want := namedListing(lz), indexedListing(t, lz); got != want {
			t.Fatalf("named surface differs from indexed rows\n--- named ---\n%.2000s\n--- indexed ---\n%.2000s", got, want)
		}
	}
}

// TestIndexedMatchesManyBasic checks the index-level Rows surface, which the
// fused deriver consumes, against the pairwise fold.
func TestIndexedMatchesManyBasic(t *testing.T) {
	for _, comps := range basicSystems() {
		lz := assertIndexedMatchesMany(t, comps...)
		if lz.Init() != 0 {
			t.Errorf("lazy init = %d, want 0", lz.Init())
		}
	}
}

// TestLazyMatchesManyInternalMoves covers component-internal transitions
// and internal self-loops surviving the product.
func TestLazyMatchesManyInternalMoves(t *testing.T) {
	a := spec.NewBuilder("A")
	a.Init("a0").Ext("a0", "go", "a1").Int("a1", "a2").Int("a2", "a2").Ext("a2", "-m", "a0")
	b := spec.NewBuilder("B")
	b.Init("b0").Ext("b0", "+m", "b1").Int("b1", "b0")
	assertLazyMatchesMany(t, a.MustBuild(), chanSpec("M", "-m", "+m"), b.MustBuild())
}

// TestLazyMatchesIndexedRandom is the differential sweep over random
// component systems through the named surface: demand-driven vs folded, and
// named vs indexed on the same Lazy.
func TestLazyMatchesIndexedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		lz := assertLazyMatchesMany(t, randomSystem(rng)...)
		if got, want := namedListing(lz), indexedListing(t, lz); got != want {
			t.Fatalf("trial %d: named surface differs from indexed rows\n--- named ---\n%.2000s\n--- indexed ---\n%.2000s", trial, got, want)
		}
	}
}

// TestIndexedMatchesManyRandom is the differential sweep over random
// component systems through the index-level Rows surface.
func TestIndexedMatchesManyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		assertIndexedMatchesMany(t, randomSystem(rng)...)
	}
}

// TestIndexedLazyNames checks composite names are only materialized on
// demand — Spec names every state without filling StateName's cache — and
// are stable across repeated queries.
func TestIndexedLazyNames(t *testing.T) {
	snd := spec.NewBuilder("snd")
	snd.Init("s0").Ext("s0", "acc", "s1").Ext("s1", "-x", "s0")
	lz := MustLazyMany(snd.MustBuild(), chanSpec("C", "-x", "+x"))
	if lz.names[lz.Init()] != "" {
		t.Fatalf("init name materialized before any StateName call: %q", lz.names[lz.Init()])
	}
	s, err := lz.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.StateName(s.Init()); got != "s0|e" {
		t.Fatalf("Spec init name = %q, want \"s0|e\"", got)
	}
	if len(lz.names) != 0 {
		t.Fatalf("Spec filled StateName's cache with %d names", len(lz.names))
	}
	n1 := lz.StateName(lz.Init())
	n2 := lz.StateName(lz.Init())
	if n1 != n2 || n1 != "s0|e" {
		t.Fatalf("StateName(init) = %q / %q, want stable \"s0|e\"", n1, n2)
	}
}

func TestLazyManyRejectsBadInputs(t *testing.T) {
	mk := func(name string) *spec.Spec {
		b := spec.NewBuilder(name)
		b.Init("s").Ext("s", "shared", "s")
		return b.MustBuild()
	}
	if _, err := LazyMany(mk("a"), mk("b"), mk("c")); err == nil {
		t.Fatal("expected pairwise-interface error")
	}
	if _, err := LazyMany(); err == nil {
		t.Fatal("expected error for empty component list")
	}
}

// TestLazyPeekRowsDoesNotExpand pins the non-expanding read: PeekRows on a
// discovered-but-unexpanded state reports absence and leaves the expansion
// counter untouched.
func TestLazyPeekRowsDoesNotExpand(t *testing.T) {
	snd := spec.NewBuilder("snd")
	snd.Init("s0").Ext("s0", "acc", "s1").Ext("s1", "-x", "s0")
	lz := MustLazyMany(snd.MustBuild(), chanSpec("C", "-x", "+x"))
	if _, _, ok := lz.PeekRows(lz.Init()); ok {
		t.Fatal("init state reported expanded before any Rows call")
	}
	ext, intl := lz.Rows(lz.Init())
	exp, disc, _ := lz.ExpansionStats()
	if exp != 1 || disc < 2 {
		t.Fatalf("after one Rows call: expanded=%d discovered=%d, want 1 and ≥2", exp, disc)
	}
	for st := 1; st < disc; st++ {
		if _, _, ok := lz.PeekRows(spec.State(st)); ok {
			t.Fatalf("frontier state %d reported expanded", st)
		}
	}
	if exp2, _, _ := lz.ExpansionStats(); exp2 != 1 {
		t.Fatalf("PeekRows expanded states: counter went 1 → %d", exp2)
	}
	// Rows must be idempotent and stable.
	ext2, intl2 := lz.Rows(lz.Init())
	if &ext[0] != &ext2[0] || len(intl) != len(intl2) {
		t.Fatal("repeated Rows returned a different published row")
	}
}

// TestExpansionTimerSamples pins the expansion timer's sample: one
// expansion in each block of sampleEvery is timed, at an offset that is
// not the same in every block, and ExpansionStats scales the sampled time
// by expanded ÷ sampled.
func TestExpansionTimerSamples(t *testing.T) {
	fam, err := specgen.ParseFamily("chain(4)")
	if err != nil {
		t.Fatal(err)
	}
	lz := MustLazyMany(fam.Components...)
	offsets := map[int64]bool{}
	for st := 0; st < lz.NumStates(); st++ {
		if lz.expanded%sampleEvery == 0 {
			offsets[lz.sampleAt-lz.expanded] = true
		}
		lz.Rows(spec.State(st))
	}
	exp, _, ns := lz.ExpansionStats()
	full := int64(exp / sampleEvery)
	if lz.sampled != full && lz.sampled != full+1 || exp < 4*sampleEvery {
		t.Fatalf("%d of %d expansions timed, want one per block of %d", lz.sampled, exp, sampleEvery)
	}
	if len(offsets) < 2 {
		t.Fatalf("every block timed the expansion at offset %v", offsets)
	}
	if want := lz.sampleNs * int64(exp) / lz.sampled; ns != want || ns <= 0 {
		t.Fatalf("ExpansionStats reports %dns, want %d (%dns sampled)", ns, want, lz.sampleNs)
	}
}

// TestLazyConcurrentRows hammers concurrent first-demand expansion on every
// intern tier. Expanders race to expand random states through Rows and
// must see every published row resolve to the same slices; peekers read
// rows through PeekRows alone, so they never take the expansion lock and
// only the publication protocol orders their reads after the writes (the
// race detector checks it). The system has 32,802 states, so the row-page
// directory grows to 33 pages, and its rows fill several arena chunks while
// readers resolve refs through both chunk directories. The initial state
// has more internal successors than an arena chunk holds, so its row takes
// the dedicated-chunk path.
func TestLazyConcurrentRows(t *testing.T) {
	const fanout = arenaChunk + 16
	fan := spec.NewBuilder("fan").Init("u")
	for i := 0; i < fanout; i++ {
		v := fmt.Sprintf("v%d", i)
		fan.Int("u", v).Ext(v, "back", "u")
	}
	tog := spec.NewBuilder("tog").Init("p").Ext("p", "flip", "q").Ext("q", "flip", "p")
	comps := []*spec.Spec{fan.MustBuild(), tog.MustBuild()}
	ref := oracle.Compose(comps...)
	want := namedListing(ref)
	if ref.NumStates() <= 2*lazyPageSize {
		t.Fatalf("%d states fill fewer than three row pages", ref.NumStates())
	}
	for _, tc := range allTiers {
		t.Run(tc.name, func(t *testing.T) {
			lz, err := lazyMany(comps, tc.tier)
			if err != nil {
				t.Fatal(err)
			}
			var expanders, peekers sync.WaitGroup
			var done atomic.Bool
			for g := 0; g < 4; g++ {
				expanders.Add(1)
				go func(seed int64) {
					defer expanders.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 3000; i++ {
						st := spec.State(rng.Intn(lz.NumStates()))
						ext, intl := lz.Rows(st)
						// Re-read: a published row resolves to the same slices.
						ext2, intl2 := lz.Rows(st)
						if !sameBacking(ext, ext2) || !sameBacking(intl, intl2) {
							t.Errorf("row of %d changed between reads", st)
							return
						}
					}
				}(int64(g))
				peekers.Add(1)
				go func(seed int64) {
					defer peekers.Done()
					rng := rand.New(rand.NewSource(seed))
					for !done.Load() {
						n := lz.NumStates()
						ext, intl, ok := lz.PeekRows(spec.State(rng.Intn(n)))
						if !ok {
							continue
						}
						for _, ed := range ext {
							if ed.To < 0 || int(ed.To) >= lz.NumStates() {
								t.Errorf("published edge to %d of %d states", ed.To, n)
								return
							}
						}
						for _, to := range intl {
							if to < 0 || int(to) >= lz.NumStates() {
								t.Errorf("published successor %d of %d states", to, n)
								return
							}
						}
					}
				}(int64(100 + g))
			}
			expanders.Wait()
			done.Store(true)
			peekers.Wait()
			_, intl := lz.Rows(lz.Init())
			if len(intl) != fanout || cap(intl) != fanout {
				t.Errorf("initial row: %d internal successors (cap %d), want %d", len(intl), cap(intl), fanout)
			}
			if n := len(*lz.arena.edges.dir.Load()) + len(*lz.arena.ints.dir.Load()); n < 4 {
				t.Errorf("rows span %d arena chunks, want several", n)
			}
			if got := namedListing(lz); got != want {
				t.Fatalf("lazy product after concurrent hammering differs from the pairwise fold\n--- lazy ---\n%.2000s\n--- eager ---\n%.2000s", got, want)
			}
		})
	}
}

// sameBacking reports whether two row slices are the same slice: equal
// length over the same first element.
func sameBacking[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestLazyRowRecordIs16Bytes pins the row record's size: two arena refs and
// two lengths, one of which publishes the record.
func TestLazyRowRecordIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(lazyRow{}); got != 16 {
		t.Fatalf("lazyRow is %d bytes, want 16", got)
	}
}

// TestArenaChunkLimitPanics fills a chunk directory to the most chunks a
// ref can name: the next chunk must be refused, not given a ref that wraps
// onto chunk 0.
func TestArenaChunkLimitPanics(t *testing.T) {
	var cs chunkStore[int32]
	full := make([][]int32, maxChunks)
	cs.dir.Store(&full)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "chunks") {
			t.Fatalf("alloc past %d chunks: recovered %v, want a chunk-limit panic", maxChunks, r)
		}
	}()
	cs.put([]int32{1})
}
