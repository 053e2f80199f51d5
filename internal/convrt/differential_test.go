package convrt

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/core"
	"protoquot/internal/dsl"
	"protoquot/internal/protocols"
	"protoquot/internal/protosmith"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

// The differential suite: for every converter-shaped specification this
// repo can produce — the committed specs/ fixtures, the paper systems
// derived fresh, and a pool of protosmith-generated systems — the compiled
// table's Step/Enabled must be trace-equivalent to spec.TraceTracker
// simulation, exhaustively over (state × event) and along seeded random
// walks, and the encoded artifact must round-trip. (The third leg of the
// satellite, equivalence against codegen-generated Go, lives in
// internal/codegen's tests: importing codegen here would cycle, since the
// table backend compiles through this package.)

// eligible reports whether s satisfies Compile's preconditions.
func eligible(s *spec.Spec) bool {
	return s.NumInternalTransitions() == 0 && s.DeterministicExternal()
}

// checkDifferential runs the full battery on one eligible spec.
func checkDifferential(t *testing.T, s *spec.Spec) {
	t.Helper()
	tab, err := Compile(s)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	exhaustiveEquiv(t, tab, s)
	walkEquiv(t, tab, s, 300, 0xC0FFEE)
	monitorEquiv(t, s, 300, 0xC0FFEE)
	data := Encode(tab)
	dec, err := Decode(data)
	if err != nil {
		t.Fatalf("%s: decode: %v", s.Name(), err)
	}
	if !bytes.Equal(Encode(dec), data) {
		t.Fatalf("%s: encode/decode not a fixed point", s.Name())
	}
	exhaustiveEquiv(t, dec, s)
}

// walkEquiv drives the table and a TraceTracker in lockstep along a seeded
// random walk, comparing enabled sets at every step and restarting both at
// terminal states.
func walkEquiv(t *testing.T, tab *Table, s *spec.Spec, steps int, seed uint64) {
	t.Helper()
	tr := s.Track()
	st := tab.Init()
	rng := seed*0x9E3779B97F4A7C15 + 1
	next := func() uint64 {
		rng += 0x9E3779B97F4A7C15
		z := rng
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := 0; i < steps; i++ {
		got := tab.Enabled(st)
		want := tr.Enabled()
		if len(got) != len(want) {
			t.Fatalf("%s step %d state %s: table enables %d events, tracker %d (%v)",
				s.Name(), i, tab.StateName(st), len(got), len(want), want)
		}
		for j, ev := range got {
			if tab.EventName(ev) != want[j] {
				t.Fatalf("%s step %d state %s: enabled[%d] table %q tracker %q",
					s.Name(), i, tab.StateName(st), j, tab.EventName(ev), want[j])
			}
		}
		if len(got) == 0 {
			st = tab.Init()
			tr.Reset()
			continue
		}
		ev := got[int(next()%uint64(len(got)))]
		nxt, ok := tab.Step(st, ev)
		if !ok {
			t.Fatalf("%s step %d: table refused its own enabled event %q", s.Name(), i, tab.EventName(ev))
		}
		if !tr.Step(tab.EventName(ev)) {
			t.Fatalf("%s step %d state %s: tracker refused table-enabled event %q",
				s.Name(), i, tab.StateName(st), tab.EventName(ev))
		}
		st = nxt
	}
}

// TestDifferentialSpecFixtures covers every committed specs/ fixture:
// converter-shaped ones must compile and agree with the tracker; the rest
// (raw protocol machines with internal transitions or nondeterminism) must
// be rejected, mirroring codegen's eligibility exactly.
func TestDifferentialSpecFixtures(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no specs/ fixtures found")
	}
	compiled, rejected := 0, 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := dsl.Parse(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, s := range ss {
			name := filepath.Base(f) + ":" + s.Name()
			t.Run(name, func(t *testing.T) {
				if eligible(s) {
					compiled++
					checkDifferential(t, s)
				} else {
					rejected++
					if _, err := Compile(s); err == nil {
						t.Fatalf("Compile accepted ineligible spec %s", s.Name())
					}
				}
			})
		}
	}
	if compiled == 0 {
		t.Fatalf("no fixture compiled (rejected %d): corpus rotted", rejected)
	}
}

// TestDifferentialPaperSystems derives the paper's converters fresh —
// Figure 14 maximal and pruned, and the smallest chain family instance —
// and runs the battery on each.
func TestDifferentialPaperSystems(t *testing.T) {
	b := protocols.ColocatedB()
	res, err := core.Derive(protocols.Service(), b, core.Options{OmitVacuous: true})
	if err != nil {
		t.Fatal(err)
	}
	checkDifferential(t, res.Converter)
	pruned, err := core.Prune(protocols.Service(), b, res.Converter)
	if err != nil {
		t.Fatal(err)
	}
	checkDifferential(t, pruned)

	fam, err := specgen.ParseFamily("chain(2)")
	if err != nil {
		t.Fatal(err)
	}
	env, err := compose.Many(fam.Components...)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := core.Derive(fam.Service, env, core.Options{OmitVacuous: true})
	if err != nil {
		t.Fatal(err)
	}
	checkDifferential(t, cres.Converter)
}

// TestDifferentialProtosmith scans protosmith seeds until 25 derivable
// converters are collected (roughly 40% of seeds admit one) and runs the
// battery on each — randomized systems reach shapes the hand-built corpus
// never does.
func TestDifferentialProtosmith(t *testing.T) {
	const want = 25
	found := 0
	for seed := int64(0); seed < 400 && found < want; seed++ {
		sys := protosmith.Generate(seed, protosmith.DefaultKnobs())
		if err := sys.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		env, err := compose.Many(sys.Components...)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := core.Derive(sys.Service, env, core.Options{OmitVacuous: true, MaxStates: 1 << 16})
		if err != nil || !res.Exists {
			continue
		}
		found++
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkDifferential(t, res.Converter)
		})
	}
	if found < want {
		t.Fatalf("only %d derivable converters in 400 seeds, want %d", found, want)
	}
}
