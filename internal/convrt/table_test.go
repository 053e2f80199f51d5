package convrt

import (
	"bytes"
	"strings"
	"testing"

	"protoquot/internal/spec"
)

// abLoop is a small cyclic converter-shaped spec: two states trading +a/-b
// with a detour, exercising multi-event rows.
func abLoop(t *testing.T) *spec.Spec {
	t.Helper()
	s, err := spec.NewBuilder("ab-loop").
		State("s0").State("s1").State("s2").
		Init("s0").
		Ext("s0", "+a", "s1").
		Ext("s1", "-b", "s0").
		Ext("s1", "+a", "s2").
		Ext("s2", "-b", "s0").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// exhaustiveEquiv checks the compiled table against the specification over
// every (state, event) pair, both directions: every spec edge is in the
// table, every table transition is a spec edge, and the CSR enabled index
// agrees cell-for-cell with the spec's enabled sets.
func exhaustiveEquiv(t *testing.T, tab *Table, s *spec.Spec) {
	t.Helper()
	if tab.NumStates() != s.NumStates() {
		t.Fatalf("states: table %d, spec %d", tab.NumStates(), s.NumStates())
	}
	alpha := s.Alphabet()
	if tab.NumEvents() != len(alpha) {
		t.Fatalf("events: table %d, spec %d", tab.NumEvents(), len(alpha))
	}
	for i, e := range alpha {
		if tab.EventName(int32(i)) != e {
			t.Fatalf("event id %d: table %q, spec alphabet %q", i, tab.EventName(int32(i)), e)
		}
		if tab.EventID(e) != int32(i) {
			t.Fatalf("EventID(%q) = %d, want %d", e, tab.EventID(e), i)
		}
	}
	if int32(s.Init()) != tab.Init() {
		t.Fatalf("init: table %d, spec %d", tab.Init(), s.Init())
	}
	transitions := 0
	for st := 0; st < s.NumStates(); st++ {
		if tab.StateName(int32(st)) != s.StateName(spec.State(st)) {
			t.Fatalf("state %d: table %q, spec %q", st, tab.StateName(int32(st)), s.StateName(spec.State(st)))
		}
		// Spec edge map for this state.
		want := map[spec.Event]int32{}
		for _, ed := range s.ExtEdges(spec.State(st)) {
			want[ed.Event] = int32(ed.To)
		}
		transitions += len(want)
		var enabled []int32
		for ev := 0; ev < len(alpha); ev++ {
			nxt, ok := tab.Step(int32(st), int32(ev))
			wantNxt, wantOK := want[alpha[ev]]
			if ok != wantOK {
				t.Fatalf("state %d event %q: table enabled=%v, spec enabled=%v", st, alpha[ev], ok, wantOK)
			}
			if ok {
				if nxt != wantNxt {
					t.Fatalf("state %d event %q: table → %d, spec → %d", st, alpha[ev], nxt, wantNxt)
				}
				enabled = append(enabled, int32(ev))
			}
		}
		got := tab.Enabled(int32(st))
		if len(got) != len(enabled) {
			t.Fatalf("state %d: Enabled() has %d ids, want %d", st, len(got), len(enabled))
		}
		for i := range got {
			if got[i] != enabled[i] {
				t.Fatalf("state %d: Enabled()[%d] = %d, want %d", st, i, got[i], enabled[i])
			}
		}
		if tab.Degree(int32(st)) != len(enabled) {
			t.Fatalf("state %d: Degree() = %d, want %d", st, tab.Degree(int32(st)), len(enabled))
		}
	}
	if tab.NumTransitions() != transitions {
		t.Fatalf("NumTransitions() = %d, want %d", tab.NumTransitions(), transitions)
	}
}

func TestCompileExhaustive(t *testing.T) {
	s := abLoop(t)
	tab, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	exhaustiveEquiv(t, tab, s)
}

func TestCompileRejectsInternalTransitions(t *testing.T) {
	s, err := spec.NewBuilder("internal").
		State("s0").State("s1").Init("s0").
		Ext("s0", "+a", "s1").
		Int("s1", "s0").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(s); err == nil || !strings.Contains(err.Error(), "internal transitions") {
		t.Fatalf("Compile = %v, want internal-transition error", err)
	}
}

func TestCompileRejectsNondeterminism(t *testing.T) {
	s, err := spec.NewBuilder("nondet").
		State("s0").State("s1").State("s2").Init("s0").
		Ext("s0", "+a", "s1").
		Ext("s0", "+a", "s2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(s); err == nil || !strings.Contains(err.Error(), "nondeterministic") {
		t.Fatalf("Compile = %v, want nondeterminism error", err)
	}
}

func TestTableSpecRoundTrip(t *testing.T) {
	s := abLoop(t)
	tab, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := tab.Spec()
	if err != nil {
		t.Fatal(err)
	}
	// Recompiling the reconstruction must yield the same machine.
	tab2, err := Compile(back)
	if err != nil {
		t.Fatal(err)
	}
	exhaustiveEquiv(t, tab2, s)
	if !bytes.Equal(Encode(tab), Encode(tab2)) {
		t.Fatal("Spec() round trip changed the encoded table")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := abLoop(t)
	tab, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	data := Encode(tab)
	if !bytes.Equal(data, Encode(tab)) {
		t.Fatal("Encode is not deterministic")
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	exhaustiveEquiv(t, dec, s)
	if dec.Name() != tab.Name() {
		t.Fatalf("decoded name %q, want %q", dec.Name(), tab.Name())
	}
	if !bytes.Equal(Encode(dec), data) {
		t.Fatal("re-encoding the decoded table changed the bytes")
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	s := abLoop(t)
	tab, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	good := string(Encode(tab))
	lines := strings.Split(strings.TrimSuffix(good, "\n"), "\n")

	cases := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"bad magic", strings.Replace(good, "convrt-table/v1", "convrt-table/v0", 1)},
		{"truncated header", lines[0] + "\n"},
		{"truncated rows", strings.Join(lines[:len(lines)-1], "\n") + "\n"},
		{"trailing data", good + "row . . .\n"},
		{"garbage cell", strings.Replace(good, "row", "row x", 1)},
		{"successor out of range", strings.Replace(good, "row 1 .", "row 99 .", 1)},
		{"implausible shape", strings.Replace(good, "states 3", "states 99999999", 1)},
		{"negative shape", strings.Replace(good, "states 3", "states -1", 1)},
		{"unquoted name", strings.Replace(good, "name \"ab-loop\"", "name ab-loop", 1)},
		{"missing event line", strings.Replace(good, "event \"+a\"\n", "", 1)},
		{"duplicate event", strings.Replace(good, "event \"-b\"", "event \"+a\"", 1)},
		{"unsorted alphabet", strings.Replace(
			strings.Replace(good, "event \"+a\"", "event \"~z\"", 1), "event \"-b\"", "event \"+a\"", 1)},
		{"duplicate state", strings.Replace(good, "state \"s1\"", "state \"s0\"", 1)},
		// Headers claiming far more cells than the input holds: the first
		// once overflowed the preallocation's capacity, the second once
		// exhausted memory before a single row was read.
		{"hostile shape overflow", hostileHeaders[0]},
		{"hostile shape oom", hostileHeaders[1]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.data == good {
				t.Fatalf("corruption did not apply; fixture layout changed")
			}
			if _, err := Decode([]byte(tc.data)); err == nil {
				t.Fatalf("Decode accepted corrupt input:\n%s", tc.data)
			}
		})
	}
	// The uncorrupted bytes still decode, so the cases above fail for the
	// right reason.
	if _, err := Decode([]byte(good)); err != nil {
		t.Fatalf("control: good input rejected: %v", err)
	}
}

func TestDecodeRejectsWrongSuccessorOnly(t *testing.T) {
	// A flipped successor inside range is undetectable structurally (by
	// design — that is the conformance layer's job); this pins that Decode
	// still accepts it so the test above is honest about what validation
	// covers.
	s := abLoop(t)
	tab, _ := Compile(s)
	data := strings.Replace(string(Encode(tab)), "row 1 .", "row 2 .", 1)
	if data == string(Encode(tab)) {
		t.Fatal("fixture row layout changed; corruption did not apply")
	}
	if _, err := Decode([]byte(data)); err != nil {
		t.Fatalf("in-range successor flip should decode (conformance catches it): %v", err)
	}
}

func TestCompileEncoded(t *testing.T) {
	s := abLoop(t)
	data, err := CompileEncoded(s)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	exhaustiveEquiv(t, dec, s)
}

func TestTableStepDoesNotAllocate(t *testing.T) {
	s := abLoop(t)
	tab, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	st := tab.Init()
	allocs := testing.AllocsPerRun(1000, func() {
		evs := tab.Enabled(st)
		nxt, ok := tab.Step(st, evs[0])
		if !ok {
			t.Fatal("enabled event refused")
		}
		_ = tab.EventID("+a")
		_ = tab.Degree(st)
		st = nxt
	})
	if allocs != 0 {
		t.Fatalf("Step/Enabled allocated %.1f per run, want 0", allocs)
	}
}
