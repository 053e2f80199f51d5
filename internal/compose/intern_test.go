package compose

import (
	"fmt"
	"math/rand"
	"testing"

	"protoquot/internal/oracle"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

var allTiers = []struct {
	name string
	tier internTier
}{
	{"dense", tierDense},
	{"hashed", tierHashed},
	{"string", tierString},
}

// assertTierMatchesMany saturates a composition on a forced intern tier
// through Rows and checks every state's StateName and rows against the
// paper's pairwise left fold (oracle.Compose). It returns the saturated
// Lazy.
func assertTierMatchesMany(t *testing.T, tier internTier, comps ...*spec.Spec) *Lazy {
	t.Helper()
	eager := oracle.Compose(comps...)
	lz, err := lazyMany(comps, tier)
	if err != nil {
		t.Fatalf("lazyMany: %v", err)
	}
	if got, want := indexedListing(t, lz), namedListing(eager); got != want {
		t.Fatalf("tier %d differs from the pairwise fold\n--- lazy ---\n%.2000s\n--- eager ---\n%.2000s", tier, got, want)
	}
	return lz
}

// TestInternTiersMatchMany drives every intern tier over random component
// systems, three specgen families and fanSystem: each state's decoded name
// and rows must match the pairwise fold. The families put the compiled rows on
// real relays: in chain(3) and chaindrop(3) every component between the
// ends answers one rendezvous and drives the next, and in ring(2) token 0
// answers station 0 and drives station 1.
func TestInternTiersMatchMany(t *testing.T) {
	for _, tc := range allTiers {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			for trial := 0; trial < 30; trial++ {
				assertTierMatchesMany(t, tc.tier, randomSystem(rng)...)
			}
			for _, comps := range basicSystems() {
				assertTierMatchesMany(t, tc.tier, comps...)
			}
			for _, name := range []string{"chain(3)", "chaindrop(3)", "ring(2)"} {
				fam, err := specgen.ParseFamily(name)
				if err != nil {
					t.Fatal(err)
				}
				assertTierMatchesMany(t, tc.tier, fam.Components...)
			}
			assertTierMatchesMany(t, tc.tier, fanSystem()...)
		})
	}
}

// fanSystem is two components whose rendezvous fan out: in the initial
// state each has two edges on the shared event m and one on the shared
// event n, so A's drive edges on m each meet two of B's answer edges and
// must skip the one on n; both also have internal moves and a private
// event.
func fanSystem() []*spec.Spec {
	a := spec.NewBuilder("A").Init("s0").
		Ext("s0", "m", "s1").Ext("s0", "m", "s2").Ext("s0", "n", "s1").
		Ext("s2", "a", "s0").Int("s1", "s0").MustBuild()
	b := spec.NewBuilder("B").Init("t0").
		Ext("t0", "m", "t0").Ext("t0", "m", "t1").Ext("t0", "n", "t1").
		Ext("t1", "b", "t0").Int("t1", "t0").MustBuild()
	return []*spec.Spec{a, b}
}

// TestHashedInternGrows saturates 2^8 reachable states on the hashed tier,
// which starts at hashFirstSlots and doubles at half load, so the table
// goes through several growths; every state must still match the fold.
func TestHashedInternGrows(t *testing.T) {
	comps := make([]*spec.Spec, 8)
	for i := range comps {
		comps[i] = twoState(t, i)
	}
	lz := assertTierMatchesMany(t, tierHashed, comps...)
	if n := lz.NumStates(); n != 256 {
		t.Fatalf("saturated %d states, want 256", n)
	}
	if got := len(lz.ti.slots); got < hashFirstSlots<<3 {
		t.Fatalf("table has %d slots after 256 states, want at least %d (three growths)", got, hashFirstSlots<<3)
	}
}

// TestRingHashedTierMatchesStringTier checks the tier ring(6) and ring(11)
// actually take — their products are past the dense limit — without the
// left fold, whose intermediate products are too big to build in a test:
// the first 20k states, expanded in id order on the hashed tier and on the
// string tier (which keeps raw tuples and is checked against the fold
// above), must get the same ids, names and rows, while the hashed table
// grows from hashFirstSlots through a dozen doublings. ring(6)'s 36-bit
// key is bit fields; ring(11)'s would be 66 bits, so its key is
// mixed-radix (a product of about 2^61.4) and decode divides.
func TestRingHashedTierMatchesStringTier(t *testing.T) {
	for _, tc := range []struct {
		family    string
		bitFields bool
	}{
		{"ring(6)", true},
		{"ring(11)", false},
	} {
		fam, err := specgen.ParseFamily(tc.family)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := compileComponents(fam.Components)
		if err != nil {
			t.Fatal(err)
		}
		if tier := tierOf(tb); tier != tierHashed {
			t.Fatalf("%s (%d key bits) takes tier %d, want the hashed tier", tc.family, tb.keyBits, tier)
		}
		hashed, err := LazyMany(fam.Components...)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashed.ti.shifts != nil; got != tc.bitFields {
			t.Fatalf("%s: bit-field key = %v, want %v", tc.family, got, tc.bitFields)
		}
		str, err := lazyMany(fam.Components, tierString)
		if err != nil {
			t.Fatal(err)
		}
		const prefix = 20000
		for st := spec.State(0); st < prefix && int(st) < hashed.NumStates(); st++ {
			he, hi := hashed.Rows(st)
			se, si := str.Rows(st)
			if fmt.Sprint(he, hi) != fmt.Sprint(se, si) {
				t.Fatalf("%s state %d: hashed rows %v %v, string-tier rows %v %v", tc.family, st, he, hi, se, si)
			}
			if hn, sn := hashed.StateName(st), str.StateName(st); hn != sn {
				t.Fatalf("%s state %d: hashed name %q, string-tier name %q", tc.family, st, hn, sn)
			}
		}
		if hashed.NumStates() != str.NumStates() || hashed.NumStates() < prefix {
			t.Fatalf("%s: discovered %d (hashed) vs %d (string) states, want equal and past %d", tc.family, hashed.NumStates(), str.NumStates(), prefix)
		}
		if got := len(hashed.ti.slots); got < hashFirstSlots<<10 {
			t.Fatalf("%s: hashed table has %d slots, want at least %d", tc.family, got, hashFirstSlots<<10)
		}
	}
}

// cycle builds an n-state machine stepping around a ring on one private
// event, so a component list of cycles has every tuple reachable.
func cycle(t *testing.T, i, n int) *spec.Spec {
	t.Helper()
	b := spec.NewBuilder(fmt.Sprintf("c%d", i))
	ev := spec.Event(fmt.Sprintf("t%d", i))
	b.Event(ev)
	b.Init("s0")
	for s := 0; s < n; s++ {
		b.Ext(fmt.Sprintf("s%d", s), ev, fmt.Sprintf("s%d", (s+1)%n))
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestKeyLayout checks the state key: every tuple over components of 1,
// 2, 3, 6 and 7 states round-trips through keyOf, intern and decode on
// both key tiers as bit fields, with the first component most significant
// and each component in bits.Len(NumStates−1) bits (0+1+2+3+3 = 9); every
// composition takes the tier its tuple count earns (the bit-field width
// picks only the layout), with a key exactly 64 bits wide on the hashed
// tier; and a saturated dense-tier composition reports as InternBytes
// exactly the key array, the page directory and the pages its keys fall
// in.
func TestKeyLayout(t *testing.T) {
	sizes := []int{1, 2, 3, 6, 7}
	comps := make([]*spec.Spec, len(sizes))
	for i, n := range sizes {
		comps[i] = cycle(t, i, n)
	}
	tb, err := compileComponents(comps)
	if err != nil {
		t.Fatal(err)
	}
	if tb.keyBits != 9 {
		t.Fatalf("keyBits = %d, want 9", tb.keyBits)
	}
	for _, tier := range []internTier{tierDense, tierHashed} {
		ti := newStateIntern(tb, sizes, tier)
		tuple := make([]int32, len(sizes))
		got := make([]int32, len(sizes))
		var walk func(ci int)
		walk = func(ci int) {
			if ci == len(sizes) {
				key := ti.keyOf(tuple)
				want := uint64(tuple[1])<<8 | uint64(tuple[2])<<6 | uint64(tuple[3])<<3 | uint64(tuple[4])
				if key != want {
					t.Fatalf("tier %d: key of %v = %#x, want %#x", tier, tuple, key, want)
				}
				id, isNew := ti.intern(tuple)
				if !isNew {
					t.Fatalf("tier %d: %v interned twice", tier, tuple)
				}
				ti.decode(id, got)
				if fmt.Sprint(got) != fmt.Sprint(tuple) {
					t.Fatalf("tier %d: %v decodes as %v", tier, tuple, got)
				}
				return
			}
			for s := 0; s < sizes[ci]; s++ {
				tuple[ci] = int32(s)
				walk(ci + 1)
			}
		}
		walk(0)
		if n := len(ti.keys); n != 1*2*3*6*7 {
			t.Fatalf("tier %d: %d states interned, want 252", tier, n)
		}
	}

	uniform := func(k, n int) []*spec.Spec {
		comps := make([]*spec.Spec, k)
		for i := range comps {
			comps[i] = cycle(t, i, n)
		}
		return comps
	}
	family := func(name string) []*spec.Spec {
		fam, err := specgen.ParseFamily(name)
		if err != nil {
			t.Fatal(err)
		}
		return fam.Components
	}
	for _, tc := range []struct {
		name      string
		comps     []*spec.Spec
		bits      int
		tier      internTier
		bitFields bool
	}{
		{"chaindrop(8)", family("chaindrop(8)"), 19, tierDense, true},
		{"ring(5)", family("ring(5)"), 30, tierDense, true},
		{"18 three-state (3^18 ≈ 2^28.5)", uniform(18, 3), 36, tierDense, false},
		{"ring(6)", family("ring(6)"), 36, tierHashed, true},
		{"16 nine-state (9^16 ≈ 2^50.7)", uniform(16, 9), 64, tierHashed, true},
		{"64 two-state (2^64)", uniform(64, 2), 64, tierHashed, true},
		{"ring(11)", family("ring(11)"), 66, tierHashed, false},
		{"65 two-state (2^65)", uniform(65, 2), 65, tierString, false},
	} {
		tb, err := compileComponents(tc.comps)
		if err != nil {
			t.Fatal(err)
		}
		if tier := tierOf(tb); tier != tc.tier || tb.keyBits != tc.bits {
			t.Errorf("%s: %d key bits on tier %d, want %d bits on tier %d", tc.name, tb.keyBits, tier, tc.bits, tc.tier)
			continue
		}
		lz, err := LazyMany(tc.comps...)
		if err != nil {
			t.Fatal(err)
		}
		if got := lz.ti.shifts != nil; got != tc.bitFields {
			t.Errorf("%s: bit-field key = %v, want %v", tc.name, got, tc.bitFields)
		}
		// Expand a few hundred states; every state discovered must decode
		// to a tuple that re-interns to its own id.
		tuple := make([]int32, len(tc.comps))
		for st := 0; st < 300 && st < lz.NumStates(); st++ {
			lz.Rows(spec.State(st))
		}
		for st := 0; st < lz.NumStates(); st++ {
			lz.ti.decode(int32(st), tuple)
			if id, isNew := lz.ti.intern(tuple); isNew || id != int32(st) {
				t.Fatalf("%s: state %d decodes to %v, which interns as %d (new %v)", tc.name, st, tuple, id, isNew)
			}
		}
		if lz.NumStates() < 300 {
			t.Fatalf("%s: discovered %d states, want at least 300", tc.name, lz.NumStates())
		}
	}

	fam, err := specgen.ParseFamily("ring(4)")
	if err != nil {
		t.Fatal(err)
	}
	lz := MustLazyMany(fam.Components...)
	for st := 0; st < lz.NumStates(); st++ {
		lz.Rows(spec.State(st))
	}
	pages := map[uint64]bool{}
	for _, key := range lz.ti.keys {
		pages[key>>internPageShift] = true
	}
	allocated := 0
	for _, pg := range lz.ti.pages {
		if pg != nil {
			allocated++
		}
	}
	if allocated != len(pages) {
		t.Fatalf("%d pages allocated, keys fall in %d", allocated, len(pages))
	}
	if allocated < 2 || allocated == len(lz.ti.pages) {
		t.Fatalf("%d of %d pages allocated, want a proper subset of several", allocated, len(lz.ti.pages))
	}
	want := 8*int64(cap(lz.ti.keys)) + 24*int64(len(lz.ti.pages)) + 4*int64(len(pages)*lz.ti.pageLen)
	if got := lz.MemStats().Intern; got != want {
		t.Fatalf("InternBytes = %d, want %d (keys, directory, %d pages of %d ids)", got, want, len(pages), lz.ti.pageLen)
	}
}
