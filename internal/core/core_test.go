package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/sat"
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

// altService returns the acc/del alternation service (paper Fig. 11).
func altService(t *testing.T) *spec.Spec {
	b := spec.NewBuilder("S")
	b.Init("v0").Ext("v0", "acc", "v1").Ext("v1", "del", "v0")
	return build(t, b)
}

// relayB returns a B where one internal event x must be relayed between
// acc and del: b0 -acc→ b1 -x→ b2 -del→ b0.
func relayB(t *testing.T) *spec.Spec {
	b := spec.NewBuilder("B")
	b.Init("b0").Ext("b0", "acc", "b1").Ext("b1", "x", "b2").Ext("b2", "del", "b0")
	return build(t, b)
}

func TestDeriveRelay(t *testing.T) {
	a, b := altService(t), relayB(t)
	res, err := Derive(a, b, Options{})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if !res.Exists || res.Converter == nil {
		t.Fatal("converter should exist")
	}
	c := res.Converter
	if got := c.Alphabet(); len(got) != 1 || got[0] != "x" {
		t.Errorf("converter alphabet = %v, want [x]", got)
	}
	if !c.HasTrace([]spec.Event{"x", "x", "x"}) {
		t.Error("converter should allow repeated x")
	}
	if err := Verify(a, b, c); err != nil {
		t.Errorf("Verify failed: %v", err)
	}
	if res.Stats.FinalStates == 0 || res.Stats.SafetyStates < res.Stats.FinalStates {
		t.Errorf("stats inconsistent: %+v", res.Stats)
	}
}

func TestDeriveSafetyImpossible(t *testing.T) {
	// B can emit del before any converter action: ok(h.ε) must fail.
	a := altService(t)
	b := spec.NewBuilder("B")
	b.Init("b0").Ext("b0", "del", "b1").Ext("b1", "x", "b0").Ext("b0", "acc", "b0")
	res, err := Derive(a, build(t, b), Options{})
	var nq *NoQuotientError
	if !errors.As(err, &nq) {
		t.Fatalf("expected NoQuotientError, got %v", err)
	}
	if res == nil || res.Exists {
		t.Error("Result.Exists should be false")
	}
}

func TestDeriveProgressImpossible(t *testing.T) {
	// B halts after acc·x: the service demands del forever after.
	a := altService(t)
	b := spec.NewBuilder("B")
	b.Init("b0").Ext("b0", "acc", "b1").Ext("b1", "x", "b2")
	b.Event("del")
	res, err := Derive(a, build(t, b), Options{})
	var nq *NoQuotientError
	if !errors.As(err, &nq) {
		t.Fatalf("expected NoQuotientError, got %v", err)
	}
	if res.Stats.SafetyStates == 0 {
		t.Error("safety phase should have produced states before progress emptied them")
	}
	// Both c0 and its x-successor are bad in the same sweep: after acc, B
	// is committed to the dead end whatever the converter does.
	if res.Stats.RemovedStates < 2 {
		t.Errorf("expected ≥2 removed states, got %d", res.Stats.RemovedStates)
	}
}

// TestDeriveProgressIterative forces a second sweep: the dead end is two
// Int steps away, so the far state is bad in sweep one and its predecessor
// becomes bad only after the transition into the dead end is gone...
// unless the predecessor could already see the violation through τ*. With
// a branch that stays live, the predecessor survives.
func TestDeriveProgressIterative(t *testing.T) {
	a := altService(t)
	b := spec.NewBuilder("B")
	// After acc, B offers x (good, leads to del) and y (doomed: one more
	// step z then halt).
	b.Init("b0").Ext("b0", "acc", "b1")
	b.Ext("b1", "x", "b2").Ext("b2", "del", "b0")
	b.Ext("b1", "y", "b3").Ext("b3", "z", "b4")
	bs := build(t, b)
	res, err := Derive(a, bs, Options{})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if res.Stats.RemovedStates == 0 {
		t.Error("the y-branch states should have been removed")
	}
	if err := Verify(a, bs, res.Converter); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// The surviving converter must not step into the y-branch.
	if res.Converter.HasTrace([]spec.Event{"y"}) {
		// y might remain as a vacuous self-loop only if B could never do
		// it, but B can; so a y trace that B can match must be gone.
		t.Errorf("converter still offers doomed y:\n%s", res.Converter.Format())
	}
}

func TestDerivePrunesWrongChoice(t *testing.T) {
	// From b1, Int event x leads onward and y leads to a dead end. The
	// safety phase keeps both; the progress phase must prune y.
	a := altService(t)
	b := spec.NewBuilder("B")
	b.Init("b0").Ext("b0", "acc", "b1")
	b.Ext("b1", "x", "b2").Ext("b1", "y", "b3")
	b.Ext("b2", "del", "b0")
	bs := build(t, b)
	res, err := Derive(a, bs, Options{})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	c := res.Converter
	init := c.Init()
	for _, ed := range c.ExtEdges(init) {
		if ed.Event == "y" {
			t.Error("converter should not offer y from its initial state")
		}
	}
	if res.Stats.RemovedStates == 0 {
		t.Error("progress phase should have removed the y successor")
	}
	if err := Verify(a, bs, c); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestDerivePreconditions(t *testing.T) {
	// A not in normal form.
	bad := spec.NewBuilder("A")
	bad.Init("a0").Int("a0", "a1").Int("a1", "a0")
	if _, err := Derive(build(t, bad), relayB(t), Options{}); err == nil {
		t.Error("non-normal-form A should be rejected")
	}
	// Ext not subset of Σ_B.
	a2 := spec.NewBuilder("A2")
	a2.Init("a0").Ext("a0", "zz", "a0")
	if _, err := Derive(build(t, a2), relayB(t), Options{}); err == nil {
		t.Error("Ext ⊄ Σ_B should be rejected")
	}
	// Empty Int.
	a3 := altService(t)
	b3 := spec.NewBuilder("B3")
	b3.Init("b0").Ext("b0", "acc", "b1").Ext("b1", "del", "b0")
	if _, err := Derive(a3, build(t, b3), Options{}); err == nil {
		t.Error("empty Int should be rejected")
	}
}

func TestDeriveMaxStates(t *testing.T) {
	a, b := altService(t), relayB(t)
	if _, err := Derive(a, b, Options{MaxStates: 1}); err == nil {
		t.Error("MaxStates=1 should abort")
	}
}

func TestDeriveOmitVacuous(t *testing.T) {
	a := altService(t)
	// relayB plus a declared-but-unusable Int event y: the maximal
	// converter may do y freely (B never matches it), so by default a
	// vacuous absorbing state appears; OmitVacuous drops it.
	b := spec.NewBuilder("B")
	b.Init("b0").Ext("b0", "acc", "b1").Ext("b1", "x", "b2").Ext("b2", "del", "b0")
	b.Event("y")
	bs := build(t, b)
	full, err := Derive(a, bs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lean, err := Derive(a, bs, Options{OmitVacuous: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.SafetyStates <= lean.Stats.SafetyStates {
		t.Errorf("default should include the vacuous state: %d vs %d",
			full.Stats.SafetyStates, lean.Stats.SafetyStates)
	}
	if !full.Converter.HasTrace([]spec.Event{"y"}) {
		t.Error("maximal converter should allow the vacuous y trace")
	}
	if lean.Converter.HasTrace([]spec.Event{"y"}) {
		t.Error("OmitVacuous converter should not have a y transition")
	}
	// Both must verify.
	if err := Verify(a, bs, full.Converter); err != nil {
		t.Errorf("Verify full: %v", err)
	}
	if err := Verify(a, bs, lean.Converter); err != nil {
		t.Errorf("Verify lean: %v", err)
	}
}

func TestPairSetDiagnostics(t *testing.T) {
	a, b := altService(t), relayB(t)
	res, err := Derive(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	init := res.Converter.StateName(res.Converter.Init())
	ps := res.PairSet(init)
	if len(ps) == 0 {
		t.Fatal("initial pair set should be non-empty")
	}
	found := false
	for _, p := range ps {
		if p[0] == "v0" && p[1] == "b0" {
			found = true
		}
	}
	if !found {
		t.Errorf("h.ε should contain (v0,b0): %v", ps)
	}
}

// TestDeriveConverterWithMemory: the converter must remember one bit.
// B forwards a token whose parity the service exposes: after acc the
// converter sees x, must respond u on odd rounds and w on even rounds
// (B enforces it by construction); C therefore needs ≥2 states.
func TestDeriveConverterWithMemory(t *testing.T) {
	a := altService(t)
	b := spec.NewBuilder("B")
	b.Init("b0").Ext("b0", "acc", "b1").Ext("b1", "u", "b2").Ext("b2", "del", "b3")
	b.Ext("b3", "acc", "b4").Ext("b4", "w", "b5").Ext("b5", "del", "b0")
	// The wrong action at each point dead-ends.
	b.Ext("b1", "w", "bx").Ext("b4", "u", "bx")
	bs := build(t, b)
	res, err := Derive(a, bs, Options{})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	c := res.Converter
	if c.NumStates() < 2 {
		t.Errorf("converter needs memory, got %d states:\n%s", c.NumStates(), c.Format())
	}
	if !c.HasTrace([]spec.Event{"u", "w", "u"}) {
		t.Error("converter should alternate u and w")
	}
	if c.HasTrace([]spec.Event{"u", "u"}) {
		t.Error("converter must not repeat u")
	}
	if err := Verify(a, bs, c); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

// TestDeriveSafetyOnly: the safety-only option returns C0 even when the
// full derivation proves no converter exists.
func TestDeriveSafetyOnly(t *testing.T) {
	a := altService(t)
	b := spec.NewBuilder("B")
	b.Init("b0").Ext("b0", "acc", "b1").Ext("b1", "x", "b2")
	b.Event("del")
	bs := build(t, b)
	res, err := Derive(a, bs, Options{SafetyOnly: true})
	if err != nil {
		t.Fatalf("SafetyOnly: %v", err)
	}
	if !res.Exists || res.Converter == nil {
		t.Fatal("safety converter should exist")
	}
	if res.Stats.RemovedStates != 0 || res.Stats.ProgressIterations != 0 {
		t.Errorf("progress phase should not have run: %+v", res.Stats)
	}
	if !res.Converter.HasTrace([]spec.Event{"x"}) {
		t.Error("C0 should allow x")
	}
	// Safety of the composite holds even though progress fails.
	bc := compose.MustMany(bs, res.Converter)
	if err := sat.Safety(bc, a); err != nil {
		t.Errorf("C0 composite should be safe: %v", err)
	}
	if sat.Progress(bc, a) == nil {
		t.Error("C0 composite should violate progress (that is why the full quotient is empty)")
	}
}

// TestVerifyInterfaceMismatch exercises Verify's interface guard.
func TestVerifyInterfaceMismatch(t *testing.T) {
	a, b := altService(t), relayB(t)
	wrongC := spec.NewBuilder("C")
	wrongC.Init("c0").Ext("c0", "unrelated", "c0")
	if err := Verify(a, b, build(t, wrongC)); err == nil {
		t.Error("Verify should reject a converter with the wrong interface")
	}
}

// ---------------------------------------------------------------------------
// Bounded completeness / maximality property test.
//
// For small random instances we can enumerate every deterministic converter
// with at most two states over Int and check:
//   - soundness:   if Derive returns C, then B‖C satisfies A (via Verify);
//   - completeness (bounded): if Derive says no converter exists, then no
//     enumerated converter satisfies A either;
//   - maximality:  every enumerated correct converter D has traces ⊆ C's.
// ---------------------------------------------------------------------------

// enumerateConverters yields all ≤2-state deterministic converters over the
// given alphabet (transition per (state,event): none, to state 0 or 1).
func enumerateConverters(alpha []spec.Event) []*spec.Spec {
	slots := 2 * len(alpha) // (state, event) pairs
	total := 1
	for i := 0; i < slots; i++ {
		total *= 3
	}
	var out []*spec.Spec
	for mask := 0; mask < total; mask++ {
		b := spec.NewBuilder(fmt.Sprintf("D%d", mask))
		for _, e := range alpha {
			b.Event(e)
		}
		b.Init("d0")
		b.State("d1")
		m := mask
		for si := 0; si < 2; si++ {
			for _, e := range alpha {
				choice := m % 3
				m /= 3
				switch choice {
				case 1:
					b.Ext(fmt.Sprintf("d%d", si), e, "d0")
				case 2:
					b.Ext(fmt.Sprintf("d%d", si), e, "d1")
				}
			}
		}
		out = append(out, b.MustBuild())
	}
	return out
}

func TestPropSoundCompleteMaximal(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration is slow")
	}
	rng := rand.New(rand.NewSource(31))
	instances := 0
	for iter := 0; iter < 120 && instances < 40; iter++ {
		// Random deterministic service over {g, h}.
		a := specgen.RandomDeterministic(rng, specgen.Config{
			MaxStates: 3, MaxEvents: 2, ExtDensity: 0.6, Connected: true, EventPrefix: "g"})
		// Random B over Ext ∪ {i0}: rename half of B's events to Ext ones.
		braw := specgen.Random(rng, specgen.Config{
			MaxStates: 4, MaxEvents: 3, ExtDensity: 0.5, IntDensity: 0.2, Connected: true, EventPrefix: "m"})
		ren := map[spec.Event]spec.Event{"m0": "g0", "m1": "g1", "m2": "i0"}
		bs, err := braw.RenameEvents(ren)
		if err != nil {
			continue
		}
		// Require B to mention all of Ext and at least one Int event.
		if !bs.HasEvent("g0") || !bs.HasEvent("g1") || !bs.HasEvent("i0") {
			continue
		}
		if !a.HasEvent("g0") || !a.HasEvent("g1") {
			continue
		}
		instances++
		res, derr := Derive(a, bs, Options{})
		if derr != nil {
			var nq *NoQuotientError
			if !errors.As(derr, &nq) {
				t.Fatalf("unexpected error: %v", derr)
			}
		}
		if res != nil && res.Exists {
			if err := Verify(a, bs, res.Converter); err != nil {
				t.Fatalf("soundness: derived converter fails verification: %v\nA:\n%s\nB:\n%s\nC:\n%s",
					err, a.Format(), bs.Format(), res.Converter.Format())
			}
		}
		for _, d := range enumerateConverters([]spec.Event{"i0"}) {
			ok := Verify(a, bs, d) == nil
			if ok && (res == nil || !res.Exists) {
				t.Fatalf("completeness: Derive said none, but converter works:\nA:\n%s\nB:\n%s\nD:\n%s",
					a.Format(), bs.Format(), d.Format())
			}
			if ok && res.Exists {
				if err := sat.Safety(d, res.Converter); err != nil {
					t.Fatalf("maximality: correct converter has a trace outside C: %v\nD:\n%s\nC:\n%s",
						err, d.Format(), res.Converter.Format())
				}
			}
		}
	}
	if instances < 10 {
		t.Fatalf("too few usable random instances: %d", instances)
	}
}

// TestPropDeriveSound runs many random instances checking soundness only
// (cheap enough for -short).
func TestPropDeriveSound(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for iter := 0; iter < 60; iter++ {
		a := specgen.RandomDeterministic(rng, specgen.Config{
			MaxStates: 4, MaxEvents: 2, ExtDensity: 0.5, Connected: true, EventPrefix: "g"})
		braw := specgen.Random(rng, specgen.Config{
			MaxStates: 5, MaxEvents: 4, ExtDensity: 0.4, IntDensity: 0.2, Connected: true, EventPrefix: "m"})
		bs, err := braw.RenameEvents(map[spec.Event]spec.Event{
			"m0": "g0", "m1": "g1", "m2": "i0", "m3": "i1"})
		if err != nil {
			continue
		}
		hasInt := bs.HasEvent("i0") || bs.HasEvent("i1")
		if !hasInt || !a.HasEvent("g0") || !a.HasEvent("g1") ||
			!bs.HasEvent("g0") || !bs.HasEvent("g1") {
			continue
		}
		res, derr := Derive(a, bs, Options{MaxStates: 4000})
		if derr != nil {
			continue
		}
		if res.Exists {
			if err := Verify(a, bs, res.Converter); err != nil {
				t.Fatalf("soundness violated: %v\nA:\n%s\nB:\n%s\nC:\n%s",
					err, a.Format(), bs.Format(), res.Converter.Format())
			}
		}
	}
}

// Property: deriving from a τ-compressed environment yields a
// trace-equivalent converter — CompressTau is a safe preprocessing step.
func TestPropDeriveFromCompressedEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	checked := 0
	for iter := 0; iter < 120 && checked < 40; iter++ {
		a := specgen.RandomDeterministic(rng, specgen.Config{
			MaxStates: 3, MaxEvents: 2, ExtDensity: 0.6, Connected: true, EventPrefix: "g"})
		braw := specgen.Random(rng, specgen.Config{
			MaxStates: 5, MaxEvents: 3, ExtDensity: 0.4, IntDensity: 0.4, Connected: true, EventPrefix: "m"})
		bs, err := braw.RenameEvents(map[spec.Event]spec.Event{
			"m0": "g0", "m1": "g1", "m2": "i0"})
		if err != nil {
			continue
		}
		if !bs.HasEvent("g0") || !bs.HasEvent("g1") || !bs.HasEvent("i0") ||
			!a.HasEvent("g0") || !a.HasEvent("g1") {
			continue
		}
		checked++
		comp := bs.CompressTau()
		r1, e1 := Derive(a, bs, Options{})
		r2, e2 := Derive(a, comp, Options{})
		ok1, ok2 := e1 == nil, e2 == nil
		if ok1 != ok2 {
			t.Fatalf("existence differs: raw=%v compressed=%v\nB:\n%s\nB':\n%s",
				e1, e2, bs.Format(), comp.Format())
		}
		if ok1 {
			if sat.Safety(r1.Converter, r2.Converter) != nil || sat.Safety(r2.Converter, r1.Converter) != nil {
				t.Fatalf("converters differ\nfrom raw:\n%s\nfrom compressed:\n%s",
					r1.Converter.Format(), r2.Converter.Format())
			}
		}
	}
	if checked < 15 {
		t.Fatalf("too few usable instances: %d", checked)
	}
}

// The Figure 14 derivation agrees before and after compressing B.
func TestDeriveCompressedColocated(t *testing.T) {
	a := altService(t)
	bs := relayB(t)
	r1, err := Derive(a, bs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Derive(a, bs.CompressTau(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sat.Safety(r1.Converter, r2.Converter) != nil || sat.Safety(r2.Converter, r1.Converter) != nil {
		t.Error("compressed derivation changed the converter")
	}
}

// Derivation is deterministic: two runs produce byte-identical converters
// (state numbering, names, and transitions). Reproducibility matters for
// golden files and generated code under version control.
func TestDeriveDeterministic(t *testing.T) {
	a, b := altService(t), relayB(t)
	r1, err := Derive(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Derive(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Converter.Format() != r2.Converter.Format() {
		t.Errorf("derivation not deterministic:\n%s\nvs\n%s",
			r1.Converter.Format(), r2.Converter.Format())
	}
}

// The composite of B and the derived converter must hide all Int events.
func TestCompositeInterfaceIsExt(t *testing.T) {
	a, b := altService(t), relayB(t)
	res, err := Derive(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bc := compose.MustMany(b, res.Converter)
	if !sat.SameInterface(bc, a) {
		t.Errorf("B‖C interface %v, want %v", bc.Alphabet(), a.Alphabet())
	}
}
