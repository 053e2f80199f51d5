package dsl

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"protoquot/internal/protocols"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

func TestParseBasic(t *testing.T) {
	src := `
# the Figure 11 service
spec S
init v0
ext v0 acc v1
ext v1 del v0
`
	s, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if s.Name() != "S" || s.NumStates() != 2 {
		t.Errorf("parsed %v", s)
	}
	if !s.HasTrace([]spec.Event{"acc", "del"}) {
		t.Error("trace lost")
	}
}

func TestParsePaperEventNames(t *testing.T) {
	src := `
spec ch
init e
ext e -d0 f
ext f +d0 e
int f l
ext l tmo.ab e
`
	s, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if !s.HasEvent("-d0") || !s.HasEvent("+d0") || !s.HasEvent("tmo.ab") {
		t.Errorf("alphabet = %v", s.Alphabet())
	}
	if s.NumInternalTransitions() != 1 {
		t.Error("internal transition lost")
	}
}

func TestParseMultipleSpecs(t *testing.T) {
	src := `
spec A
init a0
ext a0 x a0
spec B
init b0
ext b0 y b0
`
	specs, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(specs) != 2 || specs[0].Name() != "A" || specs[1].Name() != "B" {
		t.Errorf("parsed %v", specs)
	}
	if _, err := ParseString(src); err == nil {
		t.Error("ParseString should reject multiple specs")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"init-before-spec", "init x"},
		{"ext-before-spec", "ext a e b"},
		{"int-before-spec", "int a b"},
		{"event-before-spec", "event e"},
		{"bad-directive", "spec A\nfoo bar"},
		{"ext-arity", "spec A\next a b"},
		{"int-arity", "spec A\nint a"},
		{"spec-arity", "spec"},
		{"init-arity", "spec A\ninit"},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestParseErrorLineNumbers(t *testing.T) {
	_, err := Parse(strings.NewReader("spec A\ninit a0\nbogus x\n"))
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("expected ParseError, got %v", err)
	}
	if pe.Line != 3 {
		t.Errorf("Line = %d, want 3", pe.Line)
	}
}

// The line buffer grows from 4 KiB on demand: a ~100 KiB line parses to the
// spec the Builder makes from the same declarations, and a line past the
// 4 MiB limit still fails with bufio.ErrTooLong.
func TestParseLineLimit(t *testing.T) {
	want := spec.NewBuilder("wide").Init("s0").Ext("s0", "x", "s0")
	var line strings.Builder
	line.WriteString("state")
	for i := 0; line.Len() < 100<<10; i++ {
		name := fmt.Sprintf("s%d", i)
		line.WriteString(" " + name)
		want.State(name)
	}
	src := "spec wide\ninit s0\n" + line.String() + "\next s0 x s0\n"
	got, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString of a %d-byte line: %v", line.Len(), err)
	}
	w := want.MustBuild()
	if got.Format() != w.Format() || got.Hash() != w.Hash() {
		t.Errorf("a %d-byte state line parsed to %v, want %v", line.Len(), got, w)
	}

	long := "spec A\ninit a0\nstate " + strings.Repeat("a", maxLine) + "\n"
	if _, err := ParseString(long); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("a line over %d bytes: error %v, want bufio.ErrTooLong", maxLine, err)
	}
}

func TestRoundTripPaperMachines(t *testing.T) {
	machines := []*spec.Spec{
		protocols.Service(),
		protocols.AtLeastOnceService(),
		protocols.ABSender(),
		protocols.ABReceiver(),
		protocols.ABChannel(),
		protocols.NSSender(),
		protocols.NSReceiver(),
		protocols.NSChannel(),
	}
	for _, m := range machines {
		text := String(m)
		back, err := ParseString(text)
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", m.Name(), err, text)
		}
		if back.Format() != m.Format() {
			t.Errorf("%s: round trip changed the machine\nbefore:\n%s\nafter:\n%s",
				m.Name(), m.Format(), back.Format())
		}
	}
}

func TestRoundTripJSON(t *testing.T) {
	m := protocols.ABChannel()
	data, err := MarshalJSON(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Format() != m.Format() {
		t.Error("JSON round trip changed the machine")
	}
	if _, err := UnmarshalJSON([]byte("not json")); err == nil {
		t.Error("invalid JSON should fail")
	}
}

// Property: text round-trip is the identity on random specs (comparing the
// canonical Format output).
func TestPropRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 150; i++ {
		s := specgen.Random(rng, specgen.Default)
		back, err := ParseString(String(s))
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, String(s))
		}
		if back.Format() != s.Format() {
			t.Fatalf("round trip changed spec\nbefore:\n%s\nafter:\n%s", s.Format(), back.Format())
		}
		data, err := MarshalJSON(s)
		if err != nil {
			t.Fatal(err)
		}
		back2, err := UnmarshalJSON(data)
		if err != nil {
			t.Fatal(err)
		}
		if back2.Format() != s.Format() {
			t.Fatal("JSON round trip changed spec")
		}
	}
}

// Unused events and isolated states must survive a round trip (they matter
// for composition).
func TestRoundTripPreservesDeclaredEvents(t *testing.T) {
	b := spec.NewBuilder("d")
	b.Init("a").Ext("a", "x", "a").Event("ghost").State("island")
	s := b.MustBuild()
	back, err := ParseString(String(s))
	if err != nil {
		t.Fatal(err)
	}
	if !back.HasEvent("ghost") {
		t.Error("declared event lost in round trip")
	}
	if _, ok := back.LookupState("island"); !ok {
		t.Error("isolated state lost in round trip")
	}
}
