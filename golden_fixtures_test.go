package protoquot

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"protoquot/internal/protocols"
	"protoquot/internal/specgen"
)

// Pinned golden fixtures. Where golden_test.go checks run-vs-run agreement
// (sequential vs parallel within one engine build), the fixtures under
// testdata/golden/ pin the derivation outcome itself — converter listing
// with state numbering, statistics, existence, failure message — as
// produced by the engine at a known-good commit. Any engine rewrite must
// reproduce them byte for byte, at every worker count.
//
// Regenerate (only when an intentional output change is being made) with:
//
//	PROTOQUOT_GOLDEN=update go test -run TestGoldenFixtures .

type fixtureCase struct {
	name  string
	a     *Spec
	bs    []*Spec // environment (variants) fed to the string-spec engine
	comps []*Spec // raw components when bs[0] is their composition
	opts  Options
}

func fixtureCases(t testing.TB) []fixtureCase {
	win, err := protocols.WindowToNSB(protocols.WindowConfig{Window: 2, Modulus: 3})
	if err != nil {
		t.Fatal(err)
	}
	fam := func(f specgen.Family) fixtureCase {
		b, err := Compose(f.Components...)
		if err != nil {
			t.Fatal(err)
		}
		return fixtureCase{name: f.Name, a: f.Service, bs: []*Spec{b}, comps: f.Components,
			opts: Options{OmitVacuous: true}}
	}
	return []fixtureCase{
		{name: "symmetric-safety", a: protocols.Service(), bs: []*Spec{protocols.SymmetricB()},
			opts: Options{SafetyOnly: true, OmitVacuous: true}},
		{name: "symmetric-noquotient", a: protocols.Service(), bs: []*Spec{protocols.SymmetricB()},
			opts: Options{OmitVacuous: true}},
		{name: "weak-service", a: protocols.AtLeastOnceService(), bs: []*Spec{protocols.SymmetricB()},
			opts: Options{OmitVacuous: true}},
		{name: "colocated", a: protocols.Service(), bs: []*Spec{protocols.ColocatedB()}},
		{name: "window2-ns", a: protocols.WindowService(2), bs: []*Spec{win},
			opts: Options{OmitVacuous: true}},
		{name: "figure18-transport", a: protocols.CST(), bs: []*Spec{protocols.TransportB18()},
			opts: Options{OmitVacuous: true}},
		// Specgen families, composed here with the component lists kept, so
		// each fixture also anchors the fused-composition differential below.
		fam(specgen.Chain(2)),
		fam(specgen.Chain(3)),
		fam(specgen.ChainDrop(2)),
		fam(specgen.ChainDrop(3)),
		fam(specgen.Ring(1)),
		fam(specgen.Ring(2)),
	}
}

// renderOutcome serializes a derivation outcome into the canonical fixture
// text. Stats fields are written one per line (rather than %+v of the
// struct) so unrelated additions to Stats or Metrics don't churn fixtures.
func renderOutcome(o deriveOutcome) string {
	s := o.stats
	return fmt.Sprintf(
		"exists: %v\nerr: %s\nsafety_states: %d\nsafety_transitions: %d\npair_set_total: %d\nprogress_iterations: %d\nremoved_states: %d\nfinal_states: %d\nfinal_transitions: %d\nconverter:\n%s",
		o.exists, o.err, s.SafetyStates, s.SafetyTransitions, s.PairSetTotal,
		s.ProgressIterations, s.RemovedStates, s.FinalStates, s.FinalTransitions,
		o.converter)
}

func fixturePath(name string) string {
	return filepath.Join("testdata", "golden", name+".golden")
}

// TestGoldenFixtures derives every fixture case at worker counts 1, 2, and
// 4 and compares each outcome byte-for-byte against the pinned file.
func TestGoldenFixtures(t *testing.T) {
	update := os.Getenv("PROTOQUOT_GOLDEN") == "update"
	if update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range fixtureCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			var canonical string
			for _, w := range []int{1, 2, 4} {
				opts := tc.opts
				opts.Workers = w
				got := renderOutcome(deriveWith(tc.a, tc.bs, opts))
				if w == 1 {
					canonical = got
					if update {
						if err := os.WriteFile(fixturePath(tc.name), []byte(got), 0o644); err != nil {
							t.Fatal(err)
						}
						continue
					}
					want, err := os.ReadFile(fixturePath(tc.name))
					if err != nil {
						t.Fatalf("missing fixture (run with PROTOQUOT_GOLDEN=update to create): %v", err)
					}
					if got != string(want) {
						t.Errorf("outcome diverged from pinned fixture %s\ngot:\n%s", fixturePath(tc.name), truncate(got))
					}
					continue
				}
				if got != canonical {
					t.Errorf("workers=%d outcome differs from workers=1\ngot:\n%s", w, truncate(got))
				}
			}
			// The demand-driven pipeline must reproduce the same pinned
			// outcome at every worker count: over the raw component list when
			// the case is a composition, else over the single environment.
			comps := tc.comps
			if comps == nil && len(tc.bs) == 1 {
				comps = tc.bs
			}
			if comps == nil {
				return
			}
			for _, w := range []int{1, 2, 4} {
				opts := tc.opts
				opts.Workers = w
				if got := renderOutcome(deriveLazyWith(tc.a, comps, opts)); got != canonical {
					t.Errorf("lazy pipeline workers=%d diverged from pinned outcome\ngot:\n%s", w, truncate(got))
				}
			}
		})
	}
}

func truncate(s string) string {
	if len(s) > 600 {
		return s[:600] + "…"
	}
	return s
}

// TestIndexedEngineDifferentialSweep compares the two pipelines live —
// eager string composition + Derive, and the demand-driven index-space
// composition fused into the safety phase — on specgen instances larger
// than the pinned fixtures, at every worker count. Unlike TestGoldenFixtures
// this needs no pinned file: the engines check each other.
func TestIndexedEngineDifferentialSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("derives multi-thousand-state composed systems")
	}
	for _, f := range []specgen.Family{specgen.Chain(4), specgen.ChainDrop(4), specgen.Ring(3)} {
		t.Run(f.Name, func(t *testing.T) {
			b, err := Compose(f.Components...)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 4} {
				opts := Options{OmitVacuous: true, Workers: w}
				spec := deriveWith(f.Service, []*Spec{b}, opts)
				lz := deriveLazyWith(f.Service, f.Components, opts)
				if spec != lz {
					t.Errorf("workers=%d: lazy pipeline disagrees\nspec: %.300s\nlazy: %.300s",
						w, renderOutcome(spec), renderOutcome(lz))
				}
				if !spec.exists {
					t.Fatalf("workers=%d: expected a converter: %s", w, spec.err)
				}
			}
		})
	}
}

// TestGoldenFixturesCoverBothVerdicts guards against the fixture set
// silently degenerating: at least one case must produce a converter and at
// least one must fail with a no-quotient diagnosis.
func TestGoldenFixturesCoverBothVerdicts(t *testing.T) {
	var exists, fails bool
	for _, tc := range fixtureCases(t) {
		o := deriveWith(tc.a, tc.bs, tc.opts)
		if o.exists {
			exists = true
		}
		if o.err != "" {
			fails = true
		}
	}
	if !exists || !fails {
		t.Fatalf("fixture cases must cover both verdicts: exists=%v fails=%v", exists, fails)
	}
}
