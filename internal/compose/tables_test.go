package compose

import (
	"fmt"
	"strings"
	"testing"

	"protoquot/internal/spec"
)

// twoState builds a minimal two-state machine with a single private
// external event, for product-size stress tests.
func twoState(t *testing.T, i int) *spec.Spec {
	t.Helper()
	b := spec.NewBuilder(fmt.Sprintf("m%d", i))
	ev := spec.Event(fmt.Sprintf("e%d", i))
	b.Event(ev)
	b.Init("s0")
	b.State("s0")
	b.State("s1")
	b.Ext("s0", ev, "s1")
	b.Ext("s1", ev, "s0")
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCompileRejectsZeroStateComponent pins the overflow-guard fix: the old
// radix check computed (1<<63)/n and panicked with a division by zero when
// a zero-value component (NumStates() == 0) slipped in. It must now be a
// clean error from the fused composition.
func TestCompileRejectsZeroStateComponent(t *testing.T) {
	_, err := LazyMany(twoState(t, 0), new(spec.Spec))
	if err == nil {
		t.Fatal("composing a zero-state component succeeded, want error")
	}
	if !strings.Contains(err.Error(), "no states") {
		t.Fatalf("error = %q, want a 'no states' diagnostic", err)
	}
}

// TestCompileRadixOverflowFallsBackToStringKeys drives the product count
// past uint64 (65 two-state components = 2^65) and checks the composition
// still works on the string-keyed intern path.
func TestCompileRadixOverflowFallsBackToStringKeys(t *testing.T) {
	comps := make([]*spec.Spec, 65)
	for i := range comps {
		comps[i] = twoState(t, i)
	}
	tb, err := compileComponents(comps)
	if err != nil {
		t.Fatal(err)
	}
	if tier := tierOf(tb); tb.keyBits != 65 || tier != tierString {
		t.Fatalf("keyBits=%d tier=%d for a 2^65 product, want 65 bits on the string tier", tb.keyBits, tier)
	}
	lz, err := LazyMany(comps...)
	if err != nil {
		t.Fatal(err)
	}
	ext, intl := lz.Rows(lz.Init())
	if len(ext) != 65 || len(intl) != 0 {
		t.Fatalf("init rows: %d ext / %d intl edges, want 65 / 0", len(ext), len(intl))
	}
	// Each private event flips exactly one component, and re-interning the
	// flipped-back tuple must rediscover state 0 — id stability under the
	// string-key path.
	st := ext[0].To
	ext2, _ := lz.Rows(spec.State(st))
	back := false
	for _, ed := range ext2 {
		if ed.To == 0 {
			back = true
		}
	}
	if !back {
		t.Fatalf("flipping e0 twice did not return to the initial composite state")
	}
}

// TestPagedInternAboveOldDenseLimit exercises the paged direct-mapped
// intern on a product (4^13 = 2^26) that exceeds the pre-paging 2^22 flat
// array limit: pages must be allocated only for the touched key ranges, and
// ids must be stable across re-interning.
func TestPagedInternAboveOldDenseLimit(t *testing.T) {
	comps := make([]*spec.Spec, 13)
	for i := range comps {
		b := spec.NewBuilder(fmt.Sprintf("q%d", i))
		ev := spec.Event(fmt.Sprintf("f%d", i))
		b.Event(ev)
		b.Init("s0")
		for s := 0; s < 4; s++ {
			b.State(fmt.Sprintf("s%d", s))
		}
		for s := 0; s < 4; s++ {
			b.Ext(fmt.Sprintf("s%d", s), ev, fmt.Sprintf("s%d", (s+1)%4))
		}
		s, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		comps[i] = s
	}
	tb, err := compileComponents(comps)
	if err != nil {
		t.Fatal(err)
	}
	if tb.keyBits != 26 {
		t.Fatalf("keyBits=%d, want a 26-bit key", tb.keyBits)
	}
	numStates := make([]int, len(comps))
	for i, c := range comps {
		numStates[i] = c.NumStates()
	}
	ti := newStateIntern(tb, numStates, tierOf(tb))
	if ti.pages == nil {
		t.Fatalf("product 2^26 did not select the paged dense intern")
	}
	tuple := make([]int32, len(comps))
	seen := map[int32]bool{}
	for trial := 0; trial < 200; trial++ {
		for i := range tuple {
			tuple[i] = int32((trial * (i + 3)) % 4)
		}
		id, isNew := ti.intern(tuple)
		if isNew {
			if seen[id] {
				t.Fatalf("trial %d: new tuple assigned already-used id %d", trial, id)
			}
			seen[id] = true
		}
		// Re-interning the same tuple must return the same id without
		// claiming a new one.
		id2, isNew2 := ti.intern(tuple)
		if isNew2 || id2 != id {
			t.Fatalf("trial %d: re-intern gave (id=%d, new=%v), want (%d, false)", trial, id2, isNew2, id)
		}
	}
	touched := 0
	for _, pg := range ti.pages {
		if pg != nil {
			touched++
		}
	}
	if touched == 0 || touched == len(ti.pages) {
		t.Fatalf("touched %d of %d pages; want a proper subset (pages allocate on demand)", touched, len(ti.pages))
	}
}
