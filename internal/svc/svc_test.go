package svc

import (
	"testing"

	"protoquot/internal/core"
	"protoquot/internal/protocols"
	"protoquot/internal/sat"
	"protoquot/internal/spec"
)

func lit(t *testing.T, name string, evs ...spec.Event) *spec.Spec {
	t.Helper()
	s, err := Literal(name, evs...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLiteral(t *testing.T) {
	s := lit(t, "L", "a", "b", "c")
	if !s.HasTrace([]spec.Event{"a", "b", "c"}) {
		t.Error("full trace missing")
	}
	if s.HasTrace([]spec.Event{"a", "b", "c", "a"}) {
		t.Error("literal should stop")
	}
	if s.HasTrace([]spec.Event{"b"}) {
		t.Error("order violated")
	}
	if _, err := Literal("empty"); err == nil {
		t.Error("empty literal should fail")
	}
	if _, err := Literal("bad", "a", "", "c"); err == nil {
		t.Error("empty event should fail")
	}
}

func TestSeq(t *testing.T) {
	s, err := Seq("S", lit(t, "x", "a", "b"), lit(t, "y", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasTrace([]spec.Event{"a", "b", "c"}) {
		t.Error("sequence trace missing")
	}
	if s.HasTrace([]spec.Event{"a", "c"}) {
		t.Error("second part started early")
	}
	// Sequencing after a perpetual spec fails.
	loop, err := Loop("lp", lit(t, "z", "e"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Seq("bad", loop, lit(t, "y", "c")); err == nil {
		t.Error("Seq after a perpetual spec should fail")
	}
}

// Loop(Literal(acc, del)) is exactly the paper's Figure 11 service.
func TestLoopIsFigure11(t *testing.T) {
	s, err := Loop("S", lit(t, "once", protocols.Acc, protocols.Del))
	if err != nil {
		t.Fatal(err)
	}
	if sat.Safety(s, protocols.Service()) != nil || sat.Safety(protocols.Service(), s) != nil {
		t.Errorf("Loop(acc·del) should equal the Figure 11 service:\n%s", s.Format())
	}
	if err := s.IsNormalForm(); err != nil {
		t.Errorf("loop of a deterministic literal should be normal form: %v", err)
	}
}

// Seq + Loop build the strict CST transport service.
func TestComposeCST(t *testing.T) {
	s, err := Literal("cst", "open", "oind", "xfer", "dlv", "close", "cind")
	if err != nil {
		t.Fatal(err)
	}
	if sat.Safety(s, protocols.CST()) != nil || sat.Safety(protocols.CST(), s) != nil {
		t.Error("literal CST should equal the hand-built CST")
	}
}

func TestChoice(t *testing.T) {
	s, err := Choice("C", lit(t, "x", "a", "b"), lit(t, "y", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasTrace([]spec.Event{"a", "b"}) || !s.HasTrace([]spec.Event{"c", "d"}) {
		t.Error("both branches should be available")
	}
	if s.HasTrace([]spec.Event{"a", "d"}) {
		t.Error("branches must not mix")
	}
	// A branch that re-enters its initial state is rejected.
	loopy, err := Loop("lp", lit(t, "z", "e"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Choice("bad", loopy, lit(t, "y", "c")); err == nil {
		t.Error("Choice over an init-re-entering branch should fail")
	}
}

func TestOption(t *testing.T) {
	s, err := Option("O", lit(t, "x", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.IsNormalForm(); err != nil {
		t.Errorf("Option of a deterministic literal should be normal form: %v", err)
	}
	if !s.HasTrace([]spec.Event{"a"}) {
		t.Error("the optional action should be possible")
	}
	// Acceptance: the service may stabilize on "stop" (empty acceptance
	// set), i.e. an implementation that never performs a is acceptable.
	sets := s.AcceptanceSets(s.Init())
	hasEmpty := false
	for _, set := range sets {
		if len(set) == 0 {
			hasEmpty = true
		}
	}
	if !hasEmpty {
		t.Errorf("Option should permit stopping; acceptance sets: %v", sets)
	}
	// Non-normal-form operand rejected.
	bad := spec.NewBuilder("bad")
	bad.Init("a").Int("a", "b").Int("b", "a")
	if _, err := Option("O2", bad.MustBuild()); err == nil {
		t.Error("Option over non-normal-form operand should fail")
	}
}

func TestRepeat(t *testing.T) {
	s, err := Repeat("R", lit(t, "x", "a", "b"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasTrace([]spec.Event{"a", "b", "a", "b", "a", "b"}) {
		t.Error("three repetitions should be a trace")
	}
	if s.HasTrace([]spec.Event{"a", "b", "a", "b", "a", "b", "a"}) {
		t.Error("a fourth repetition should be impossible")
	}
	if _, err := Repeat("bad", lit(t, "x", "a"), 0); err == nil {
		t.Error("Repeat 0 should fail")
	}
}

// The combinators compose with the quotient: derive a converter for a
// service built entirely from combinators.
func TestCombinatorServiceQuotient(t *testing.T) {
	svc, err := Loop("S", lit(t, "once", "req", "rsp"))
	if err != nil {
		t.Fatal(err)
	}
	world := spec.NewBuilder("B")
	world.Init("b0").Ext("b0", "req", "b1").Ext("b1", "mid", "b2").Ext("b2", "rsp", "b0")
	b := world.MustBuild()
	if err := svc.IsNormalForm(); err != nil {
		t.Fatal(err)
	}
	res, err := core.Derive(svc, b, core.Options{OmitVacuous: true})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if !res.Converter.HasTrace([]spec.Event{"mid", "mid"}) {
		t.Error("combinator-built service should yield the relay converter")
	}
	if err := core.Verify(svc, b, res.Converter); err != nil {
		t.Errorf("Verify: %v", err)
	}
}
