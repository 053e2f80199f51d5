package compose

import (
	"fmt"
	"math/rand"
	"testing"

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
// left fold. It returns the saturated Lazy.
func assertTierMatchesMany(t *testing.T, tier internTier, comps ...*spec.Spec) *Lazy {
	t.Helper()
	eager, err := Many(comps...)
	if err != nil {
		t.Fatalf("Many: %v", err)
	}
	lz, err := lazyMany(comps, tier)
	if err != nil {
		t.Fatalf("lazyMany: %v", err)
	}
	if got, want := indexedListing(t, lz), namedListing(eager); got != want {
		t.Fatalf("tier %d differs from eager fold\n--- lazy ---\n%.2000s\n--- eager ---\n%.2000s", tier, got, want)
	}
	return lz
}

// TestInternTiersMatchMany drives every intern tier over random component
// systems: each state's decoded name and rows must match the left fold.
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
		})
	}
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

// TestRingHashedTierMatchesStringTier checks the tier ring(6) actually
// takes — its product is past the dense limit — without the left fold,
// whose intermediate products are too big to build in a test: the first
// 20k states, expanded in id order on the hashed tier and on the string
// tier (which keeps raw tuples and is checked against the fold above), must
// get the same ids, names and rows, while the hashed table grows from
// hashFirstSlots through a dozen doublings.
func TestRingHashedTierMatchesStringTier(t *testing.T) {
	fam, err := specgen.ParseFamily("ring(6)")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := compileComponents(fam.Components)
	if err != nil {
		t.Fatal(err)
	}
	if tier := tierOf(tb); tier != tierHashed {
		t.Fatalf("ring(6) (product %d) takes tier %d, want the hashed tier", tb.product, tier)
	}
	hashed, err := LazyMany(fam.Components...)
	if err != nil {
		t.Fatal(err)
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
			t.Fatalf("state %d: hashed rows %v %v, string-tier rows %v %v", st, he, hi, se, si)
		}
		if hn, sn := hashed.StateName(st), str.StateName(st); hn != sn {
			t.Fatalf("state %d: hashed name %q, string-tier name %q", st, hn, sn)
		}
	}
	if hashed.NumStates() != str.NumStates() || hashed.NumStates() < prefix {
		t.Fatalf("discovered %d (hashed) vs %d (string) states, want equal and past %d", hashed.NumStates(), str.NumStates(), prefix)
	}
	if got := len(hashed.ti.slots); got < hashFirstSlots<<10 {
		t.Fatalf("hashed table has %d slots, want at least %d", got, hashFirstSlots<<10)
	}
}
