package compose

import (
	"math/rand"
	"sort"
	"testing"

	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

func build(t *testing.T, b *spec.Builder) *spec.Spec {
	t.Helper()
	s, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s
}

// sender/receiver rendezvous on "msg"; "go" and "done" stay external.
func senderReceiver(t *testing.T) (*spec.Spec, *spec.Spec) {
	sb := spec.NewBuilder("snd")
	sb.Init("s0").Ext("s0", "go", "s1").Ext("s1", "msg", "s0")
	rb := spec.NewBuilder("rcv")
	rb.Init("r0").Ext("r0", "msg", "r1").Ext("r1", "done", "r0")
	return build(t, sb), build(t, rb)
}

func TestPairAlphabetIsSymmetricDifference(t *testing.T) {
	s, r := senderReceiver(t)
	c := Pair(s, r)
	al := c.Alphabet()
	want := []spec.Event{"done", "go"}
	if len(al) != 2 || al[0] != want[0] || al[1] != want[1] {
		t.Errorf("alphabet = %v, want %v", al, want)
	}
	if c.HasEvent("msg") {
		t.Error("shared event msg should be hidden")
	}
}

func TestPairSynchronizesSharedEvents(t *testing.T) {
	s, r := senderReceiver(t)
	c := Pair(s, r)
	// Behaviour: go, then internal sync (msg), then done, repeat.
	if !c.HasTrace([]spec.Event{"go", "done"}) {
		t.Error("go·done should be a trace (msg synchronizes internally)")
	}
	if c.HasTrace([]spec.Event{"done"}) {
		t.Error("done before the rendezvous should be impossible")
	}
	if !c.HasTrace([]spec.Event{"go", "go"}) {
		t.Error("go·go should be a trace: the rendezvous can happen silently in between")
	}
	if c.HasTrace([]spec.Event{"go", "done", "done"}) {
		t.Error("a second done without a second rendezvous should be impossible")
	}
	if c.NumInternalTransitions() == 0 {
		t.Error("synchronized event should appear as an internal transition")
	}
}

func TestPairBlocksWhenNotMutuallyEnabled(t *testing.T) {
	// a offers "x" only; b never offers "x": composite has no moves.
	ab := spec.NewBuilder("a")
	ab.Init("a0").Ext("a0", "x", "a1")
	bb := spec.NewBuilder("b")
	bb.Init("b0").Ext("b1", "x", "b0") // x only from unreachable b1
	c := Pair(build(t, ab), build(t, bb))
	if c.NumExternalTransitions() != 0 || c.NumInternalTransitions() != 0 {
		t.Errorf("expected deadlocked composite, got %s", c.Format())
	}
}

func TestPairInterleavesDistinctEvents(t *testing.T) {
	ab := spec.NewBuilder("a")
	ab.Init("a0").Ext("a0", "x", "a1")
	bb := spec.NewBuilder("b")
	bb.Init("b0").Ext("b0", "y", "b1")
	c := Pair(build(t, ab), build(t, bb))
	for _, tr := range [][]spec.Event{{"x", "y"}, {"y", "x"}} {
		if !c.HasTrace(tr) {
			t.Errorf("interleaving %v missing", tr)
		}
	}
}

func TestPairPropagatesInternalMoves(t *testing.T) {
	ab := spec.NewBuilder("a")
	ab.Init("a0").Int("a0", "a1").Ext("a1", "x", "a0")
	bb := spec.NewBuilder("b")
	bb.Init("b0").Ext("b0", "y", "b0")
	c := Pair(build(t, ab), build(t, bb))
	if !c.HasTrace([]spec.Event{"x"}) {
		t.Error("internal move of component lost")
	}
	if c.NumInternalTransitions() == 0 {
		t.Error("component internal transition should appear in composite")
	}
}

func TestPairStateNames(t *testing.T) {
	s, r := senderReceiver(t)
	c := Pair(s, r)
	if _, ok := c.LookupState("s0" + StateSep + "r0"); !ok {
		t.Errorf("composite init name missing; states: %s", c.Format())
	}
}

func TestManyRejectsTripleSharedEvent(t *testing.T) {
	mk := func(name string) *spec.Spec {
		b := spec.NewBuilder(name)
		b.Init("q0").Ext("q0", "shared", "q0")
		return b.MustBuild()
	}
	if _, err := Many(mk("one"), mk("two"), mk("three")); err == nil {
		t.Error("Many should reject an event shared by three components")
	}
}

func TestManyComposesChain(t *testing.T) {
	// s -a-> relay -b-> r, pairwise interfaces {a}, {b}.
	sb := spec.NewBuilder("S")
	sb.Init("s0").Ext("s0", "a", "s0")
	rb := spec.NewBuilder("R")
	rb.Init("r0").Ext("r0", "a", "r1").Ext("r1", "b", "r0")
	tb := spec.NewBuilder("T")
	tb.Init("t0").Ext("t0", "b", "t0").Ext("t0", "out", "t0")
	c, err := Many(build(t, sb), build(t, rb), build(t, tb))
	if err != nil {
		t.Fatalf("Many: %v", err)
	}
	al := c.Alphabet()
	if len(al) != 1 || al[0] != "out" {
		t.Errorf("alphabet = %v, want [out]", al)
	}
	if !c.HasTrace([]spec.Event{"out"}) {
		t.Error("out should be a trace")
	}
}

func TestManyEmpty(t *testing.T) {
	if _, err := Many(); err == nil {
		t.Error("Many() with no components should fail")
	}
}

// Property: composition is commutative up to trace equivalence.
func TestPropPairCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := specgen.Config{MaxStates: 5, MaxEvents: 3, ExtDensity: 0.4, IntDensity: 0.3, Connected: true}
	for i := 0; i < 60; i++ {
		a := specgen.Random(rng, cfg)
		cfgB := cfg
		cfgB.EventPrefix = "f" // disjoint alphabets half the time
		if i%2 == 0 {
			cfgB.EventPrefix = "e" // shared alphabet the other half
		}
		b := specgen.Random(rng, cfgB)
		ab, ba := Pair(a, b), Pair(b, a)
		al := ab.Alphabet()
		if len(al) != len(ba.Alphabet()) {
			t.Fatalf("alphabets differ: %v vs %v", al, ba.Alphabet())
		}
		for j := 0; j < 25; j++ {
			tr := randomTraceOver(rng, al, 4)
			if ab.HasTrace(tr) != ba.HasTrace(tr) {
				t.Fatalf("commutativity violated on %v", tr)
			}
		}
	}
}

// Property: with disjoint alphabets, every interleaving of a trace of A and
// a trace of B is a trace of A‖B.
func TestPropPairInterleavingDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cfgA := specgen.Config{MaxStates: 4, MaxEvents: 2, ExtDensity: 0.5, Connected: true, EventPrefix: "a"}
	cfgB := cfgA
	cfgB.EventPrefix = "b"
	for i := 0; i < 60; i++ {
		a := specgen.Random(rng, cfgA)
		b := specgen.Random(rng, cfgB)
		c := Pair(a, b)
		ta := specgen.RandomTrace(rng, a, 3)
		tb := specgen.RandomTrace(rng, b, 3)
		// One particular interleaving: ta then tb.
		tr := append(append([]spec.Event{}, ta...), tb...)
		if !c.HasTrace(tr) {
			t.Fatalf("concatenation %v not a trace of composite", tr)
		}
	}
}

// Property: a trace of the composite, filtered to A's private events, is a
// trace of A "modulo hidden moves" — checked here for disjoint alphabets
// where it is exact projection.
func TestPropProjectionDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfgA := specgen.Config{MaxStates: 4, MaxEvents: 2, ExtDensity: 0.5, Connected: true, EventPrefix: "a"}
	cfgB := cfgA
	cfgB.EventPrefix = "b"
	for i := 0; i < 60; i++ {
		a := specgen.Random(rng, cfgA)
		b := specgen.Random(rng, cfgB)
		c := Pair(a, b)
		tr := specgen.RandomTrace(rng, c, 6)
		var pa []spec.Event
		for _, e := range tr {
			if a.HasEvent(e) {
				pa = append(pa, e)
			}
		}
		if !a.HasTrace(pa) {
			t.Fatalf("projection %v of composite trace %v not a trace of A", pa, tr)
		}
	}
}

func randomTraceOver(rng *rand.Rand, al []spec.Event, maxLen int) []spec.Event {
	if len(al) == 0 {
		return nil
	}
	tr := make([]spec.Event, rng.Intn(maxLen+1))
	for i := range tr {
		tr[i] = al[rng.Intn(len(al))]
	}
	return tr
}

// Sanity: alphabets of Pair results are sorted (an invariant other
// packages rely on).
func TestAlphabetSorted(t *testing.T) {
	s, r := senderReceiver(t)
	c := Pair(s, r)
	al := c.Alphabet()
	if !sort.SliceIsSorted(al, func(i, j int) bool { return al[i] < al[j] }) {
		t.Errorf("alphabet not sorted: %v", al)
	}
}
