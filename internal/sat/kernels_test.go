package sat

import (
	"fmt"
	"math/rand"
	"testing"

	"protoquot/internal/spec"
)

// naiveSubset is the per-bit reference for MaskSubset.
func naiveSubset(a, b []uint64, nbits int) bool {
	for i := 0; i < nbits; i++ {
		if a[i>>6]&(1<<(uint(i)&63)) != 0 && b[i>>6]&(1<<(uint(i)&63)) == 0 {
			return false
		}
	}
	return true
}

// naivePopcount is the per-bit reference for Popcount.
func naivePopcount(m []uint64, nbits int) int {
	n := 0
	for i := 0; i < nbits; i++ {
		if m[i>>6]&(1<<(uint(i)&63)) != 0 {
			n++
		}
	}
	return n
}

// randMask fills nbits random bits at the given density; bits beyond nbits
// in the trailing word stay zero, matching how the engine builds masks.
func randMask(rng *rand.Rand, nbits int, density float64) []uint64 {
	m := make([]uint64, (nbits+63)/64)
	for i := 0; i < nbits; i++ {
		if rng.Float64() < density {
			m[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return m
}

// TestMaskKernelsAgainstNaive cross-checks MaskSubset / Popcount / OrInto
// against per-bit references over randomized masks at several strides,
// including multi-word masks and trailing-word edge bits (nbits 63/64/65,
// where off-by-one word handling shows up).
func TestMaskKernelsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, nbits := range []int{1, 7, 63, 64, 65, 127, 128, 129, 300} {
		for trial := 0; trial < 200; trial++ {
			density := []float64{0.1, 0.5, 0.9}[trial%3]
			a := randMask(rng, nbits, density)
			b := randMask(rng, nbits, density)
			if got, want := MaskSubset(a, b), naiveSubset(a, b, nbits); got != want {
				t.Fatalf("nbits=%d trial=%d: MaskSubset=%v, naive=%v (a=%x b=%x)", nbits, trial, got, want, a, b)
			}
			// Forced-subset case, so both branches of the verdict are hit.
			sub := make([]uint64, len(a))
			for w := range a {
				sub[w] = a[w] & b[w]
			}
			if !MaskSubset(sub, a) || !MaskSubset(sub, b) {
				t.Fatalf("nbits=%d trial=%d: a∩b not ⊆ both operands", nbits, trial)
			}
			if got, want := Popcount(a), naivePopcount(a, nbits); got != want {
				t.Fatalf("nbits=%d trial=%d: Popcount=%d, naive=%d", nbits, trial, got, want)
			}
			dst := append([]uint64(nil), a...)
			OrInto(dst, b)
			for w := range dst {
				if dst[w] != a[w]|b[w] {
					t.Fatalf("nbits=%d trial=%d word=%d: OrInto=%x, want %x", nbits, trial, w, dst[w], a[w]|b[w])
				}
			}
		}
	}
}

// TestEventsOfRoundTrip checks mask → events → mask round-trips over
// randomized masks at universe sizes spanning word boundaries.
func TestEventsOfRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, nev := range []int{1, 5, 63, 64, 65, 130} {
		events := make([]spec.Event, nev)
		for i := range events {
			events[i] = spec.Event(fmt.Sprintf("ev%03d", i))
		}
		ix, err := NewReadyIndex(events)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 100; trial++ {
			m := randMask(rng, nev, 0.4)
			back, err := ix.MaskOf(ix.EventsOf(m))
			if err != nil {
				t.Fatal(err)
			}
			for w := range m {
				if back[w] != m[w] {
					t.Fatalf("nev=%d trial=%d: round trip %x -> %x", nev, trial, m, back)
				}
			}
		}
	}
}

// TestWordsEqualAgainstNaive cross-checks the unrolled comparison against
// the obvious loop at lengths that straddle the 8-word unroll boundary
// (0..9, 15..17, 64), including single-word flips at every position —
// a wrong lane in the XOR-OR reduction shows up as a missed difference.
func TestWordsEqualAgainstNaive(t *testing.T) {
	naive := func(a, b []uint64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(7))
	lengths := []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 64}
	for _, n := range lengths {
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64()
		}
		b := append([]uint64(nil), a...)
		if !WordsEqual(a, b) || !naive(a, b) {
			t.Fatalf("len=%d: equal slices compare unequal", n)
		}
		for i := 0; i < n; i++ {
			b[i] ^= 1 << (uint(rng.Intn(64)))
			if WordsEqual(a, b) != naive(a, b) {
				t.Fatalf("len=%d flip@%d: WordsEqual=%v naive=%v", n, i, WordsEqual(a, b), naive(a, b))
			}
			b[i] = a[i]
		}
		if n > 0 && WordsEqual(a, b[:n-1]) {
			t.Fatalf("len=%d: length mismatch compared equal", n)
		}
	}
}

// TestHashWordsProperties pins the contract HashWords' callers rely on:
// deterministic across calls, sensitive to every word position and to
// length (a zero-padded extension must not collide), and with no
// systematic low-bit collisions across near-identical inputs — the intern
// table shards by the low bits, so a weak finalizer would pile every set
// into one shard.
func TestHashWordsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 8, 13, 64, 1000} {
		ws := make([]uint64, n)
		for i := range ws {
			ws[i] = rng.Uint64()
		}
		h := HashWords(ws)
		if h != HashWords(ws) {
			t.Fatalf("len=%d: HashWords is not deterministic", n)
		}
		if HashWords(append(append([]uint64(nil), ws...), 0)) == h {
			t.Errorf("len=%d: zero-padded extension collides", n)
		}
		for i := 0; i < n; i++ {
			ws[i] ^= 1
			if HashWords(ws) == h {
				t.Errorf("len=%d: single-bit flip at word %d does not change the hash", n, i)
			}
			ws[i] ^= 1
		}
	}
	// Low-bit spread: hash sequential single-word sets and require every
	// value of the low 3 bits (an 8-shard table's shard index) to occur.
	seen := make(map[uint64]int)
	for i := uint64(0); i < 256; i++ {
		seen[HashWords([]uint64{i})&7]++
	}
	if len(seen) != 8 {
		t.Errorf("low-3-bit shard index covers %d of 8 values over 256 sequential words", len(seen))
	}
}
