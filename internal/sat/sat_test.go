package sat

import (
	"errors"
	"math/rand"
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

// service is the acc/del alternation (Figure 11).
func service(t *testing.T) *spec.Spec {
	b := spec.NewBuilder("S")
	b.Init("v0").Ext("v0", "acc", "v1").Ext("v1", "del", "v0")
	return build(t, b)
}

func TestSafetyIdentity(t *testing.T) {
	s := service(t)
	if err := Safety(s, s); err != nil {
		t.Errorf("S should satisfy itself: %v", err)
	}
}

func TestSafetySubsetOK(t *testing.T) {
	// B does acc·del once then stops — a strict trace subset of S.
	b := spec.NewBuilder("B")
	b.Init("b0").Ext("b0", "acc", "b1").Ext("b1", "del", "b2")
	b.Event("acc").Event("del")
	if err := Safety(build(t, b), service(t)); err != nil {
		t.Errorf("trace subset should be safe: %v", err)
	}
}

func TestSafetyViolation(t *testing.T) {
	// B can do two accs in a row.
	b := spec.NewBuilder("B")
	b.Init("b0").Ext("b0", "acc", "b1").Ext("b1", "acc", "b2").Ext("b1", "del", "b0")
	err := Safety(build(t, b), service(t))
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("expected Violation, got %v", err)
	}
	if v.Kind != "safety" {
		t.Errorf("Kind = %q", v.Kind)
	}
	want := []spec.Event{"acc", "acc"}
	if len(v.Trace) != 2 || v.Trace[0] != want[0] || v.Trace[1] != want[1] {
		t.Errorf("counterexample = %v, want %v", v.Trace, want)
	}
	if !service(t).HasTrace(v.Trace[:len(v.Trace)-1]) {
		t.Error("counterexample prefix should be a trace of A")
	}
}

func TestSafetyInterfaceMismatch(t *testing.T) {
	b := spec.NewBuilder("B")
	b.Init("b0").Ext("b0", "other", "b0")
	err := Safety(build(t, b), service(t))
	var v *Violation
	if err == nil || errors.As(err, &v) {
		t.Errorf("interface mismatch should be an ordinary error, got %v", err)
	}
}

func TestSafetyNondeterministicA(t *testing.T) {
	// A: after x, nondeterministically allow y or z (via internal split);
	// B chooses y — safe.
	a := spec.NewBuilder("A")
	a.Init("a0").Ext("a0", "x", "a1").Int("a1", "a2").Int("a1", "a3")
	a.Ext("a2", "y", "a0").Ext("a3", "z", "a0")
	bb := spec.NewBuilder("B")
	bb.Init("b0").Ext("b0", "x", "b1").Ext("b1", "y", "b0")
	bb.Event("z")
	if err := Safety(build(t, bb), build(t, a)); err != nil {
		t.Errorf("B choosing branch y should be safe: %v", err)
	}
}

func TestProgressIdentity(t *testing.T) {
	s := service(t)
	if err := Progress(s, s); err != nil {
		t.Errorf("S should satisfy itself w.r.t. progress: %v", err)
	}
	if err := Satisfies(s, s); err != nil {
		t.Errorf("Satisfies(S,S): %v", err)
	}
}

func TestProgressDeadlockDetected(t *testing.T) {
	// B stops after one round: after acc·del it refuses acc, but the
	// service's acceptance set at v0 is {acc}.
	b := spec.NewBuilder("B")
	b.Init("b0").Ext("b0", "acc", "b1").Ext("b1", "del", "b2")
	b.Event("acc").Event("del")
	err := Progress(build(t, b), service(t))
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("expected progress violation, got %v", err)
	}
	if v.Kind != "progress" {
		t.Errorf("Kind = %q", v.Kind)
	}
	want := []spec.Event{"acc", "del"}
	if len(v.Trace) != 2 || v.Trace[0] != want[0] || v.Trace[1] != want[1] {
		t.Errorf("witness trace = %v, want %v", v.Trace, want)
	}
}

func TestProgressInternalCycleIsFair(t *testing.T) {
	// B cycles internally between two states that jointly offer acc; under
	// the fairness assumption the cycle is a sink set offering acc, so B
	// still makes progress against a service requiring acc.
	a := spec.NewBuilder("A")
	a.Init("a0").Ext("a0", "acc", "a0")
	b := spec.NewBuilder("B")
	b.Init("p").Int("p", "q").Int("q", "p").Ext("p", "acc", "p")
	if err := Progress(build(t, b), build(t, a)); err != nil {
		t.Errorf("fair internal cycle offering acc should satisfy: %v", err)
	}
}

func TestProgressLivelockDetected(t *testing.T) {
	// B diverges: an internal cycle with no external events at all.
	a := spec.NewBuilder("A")
	a.Init("a0").Ext("a0", "acc", "a0")
	b := spec.NewBuilder("B")
	b.Init("p").Int("p", "q").Int("q", "p")
	b.Event("acc")
	err := Progress(build(t, b), build(t, a))
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("expected progress violation for livelock, got %v", err)
	}
}

func TestProgressNondeterministicServicePermitsChoice(t *testing.T) {
	// A (normal form): from hub, internal choice between a child offering
	// {y} and a child offering {z}; both lead to done. B offers only y —
	// allowed, because A may stabilize on the y-child.
	a := spec.NewBuilder("A")
	a.Init("h").Int("h", "ky").Int("h", "kz")
	a.Ext("ky", "y", "d").Ext("kz", "z", "d")
	as := build(t, a)
	if err := as.IsNormalForm(); err != nil {
		t.Fatalf("A should be normal form: %v", err)
	}
	b := spec.NewBuilder("B")
	b.Init("b0").Ext("b0", "y", "b1")
	b.Event("z")
	if err := Progress(build(t, b), as); err != nil {
		t.Errorf("B offering one permitted branch should satisfy: %v", err)
	}
	// But B offering nothing fails.
	b2 := spec.NewBuilder("B2")
	b2.Init("b0").Event("y").Event("z")
	var v *Violation
	if err := Progress(build(t, b2), as); !errors.As(err, &v) {
		t.Errorf("empty B should violate progress, got %v", err)
	}
}

func TestProgressRequiresNormalForm(t *testing.T) {
	a := spec.NewBuilder("A")
	a.Init("a0").Int("a0", "a1").Int("a1", "a0") // internal cycle
	b := spec.NewBuilder("B")
	s := build(t, b.Init("b0"))
	err := Progress(s, build(t, a))
	var nf *spec.NotNormalFormError
	if !errors.As(err, &nf) {
		t.Errorf("expected NotNormalFormError, got %v", err)
	}
}

func TestProgDirect(t *testing.T) {
	a := spec.NewBuilder("A")
	a.Init("h").Int("h", "k1").Int("h", "k2")
	a.Ext("k1", "e", "h").Ext("k2", "f", "h")
	as := build(t, a)
	if !Prog(as, as.Init(), []spec.Event{"e"}) {
		t.Error("ready {e} should cover acceptance set {e}")
	}
	if !Prog(as, as.Init(), []spec.Event{"f", "g"}) {
		t.Error("ready {f,g} should cover acceptance set {f}")
	}
	if Prog(as, as.Init(), []spec.Event{"g"}) {
		t.Error("ready {g} covers nothing")
	}
}

func TestSameInterface(t *testing.T) {
	s := service(t)
	if !SameInterface(s, s.Renamed("copy")) {
		t.Error("identical alphabets should match")
	}
	other := spec.NewBuilder("O")
	other.Init("o").Ext("o", "acc", "o")
	if SameInterface(build(t, other), s) {
		t.Error("different alphabets should not match")
	}
}

func TestFormatTrace(t *testing.T) {
	if got := FormatTrace([]spec.Event{"a", "b"}); got != "a b" {
		t.Errorf("FormatTrace = %q", got)
	}
	if got := FormatTrace(nil); got != "" {
		t.Errorf("FormatTrace(nil) = %q", got)
	}
}

// Property: every spec satisfies its own determinization w.r.t. safety
// (trace-equivalence), and a random spec satisfies itself w.r.t. safety.
func TestPropSafetyReflexiveAndDeterminization(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 80; i++ {
		s := specgen.Random(rng, specgen.Default)
		if err := Safety(s, s); err != nil {
			t.Fatalf("self-safety failed: %v\n%s", err, s.Format())
		}
		d := s.Normalize()
		if err := Safety(s, d); err != nil {
			t.Fatalf("spec does not satisfy its determinization: %v", err)
		}
		if err := Safety(d, s); err != nil {
			t.Fatalf("determinization does not satisfy original: %v", err)
		}
	}
}

// Property: against a deterministic service, Safety agrees with explicit
// trace checking on random traces.
func TestPropSafetyAgreesWithTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 80; i++ {
		a := specgen.RandomDeterministic(rng, specgen.Config{
			MaxStates: 5, MaxEvents: 3, ExtDensity: 0.5, Connected: true})
		b := specgen.Random(rng, specgen.Config{
			MaxStates: 5, MaxEvents: 3, ExtDensity: 0.4, IntDensity: 0.3, Connected: true})
		// Align alphabets: both use e0..e2 prefix; ensure same alphabet by
		// declaring missing events.
		if !SameInterface(b, a) {
			continue
		}
		err := Safety(b, a)
		// Cross-check with exhaustive trace enumeration up to length 4.
		var bad []spec.Event
		for _, tr := range b.TracesUpTo(4) {
			if !a.HasTrace(tr) {
				bad = tr
				break
			}
		}
		if (err == nil) != (bad == nil) {
			t.Fatalf("Safety=%v but exhaustive check found %v\nB:\n%s\nA:\n%s",
				err, bad, b.Format(), a.Format())
		}
	}
}

// Property: progress violations come with traces that B can perform.
func TestPropProgressWitnessIsTraceOfB(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 80; i++ {
		a := specgen.RandomDeterministic(rng, specgen.Config{
			MaxStates: 4, MaxEvents: 2, ExtDensity: 0.6, Connected: true})
		b := specgen.Random(rng, specgen.Config{
			MaxStates: 4, MaxEvents: 2, ExtDensity: 0.3, IntDensity: 0.3, Connected: true})
		if !SameInterface(b, a) {
			continue
		}
		err := Progress(b, a)
		var v *Violation
		if errors.As(err, &v) {
			if !b.HasTrace(v.Trace) {
				t.Fatalf("witness %v is not a trace of B\n%s", v.Trace, b.Format())
			}
		}
	}
}
