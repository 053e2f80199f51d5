package protoquot

import (
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/core"
	"protoquot/internal/specgen"
)

// TestDeriveMinimizedEnvironmentEquivalent is the property test behind
// Options.MinimizeComponents: deriving against a bisimulation-minimized
// environment must answer the quotient problem identically — same
// existence verdict, and a converter that is correct for the ORIGINAL
// environment (and vice versa). Converter state names reflect environment
// state names, so the comparison is semantic (cross-verification plus
// minimized-shape agreement), not textual.
func TestDeriveMinimizedEnvironmentEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("derives each family twice and cross-verifies")
	}
	fams := []specgen.Family{
		specgen.Chain(2), specgen.Chain(3),
		specgen.ChainDrop(2), specgen.ChainDrop(3),
		specgen.Ring(1), specgen.Ring(2),
	}
	for _, f := range fams {
		t.Run(f.Name, func(t *testing.T) {
			b, err := Compose(f.Components...)
			if err != nil {
				t.Fatal(err)
			}
			bMin := b.Minimize()
			opts := Options{OmitVacuous: true}
			orig, errO := Derive(f.Service, b, opts)
			min, errM := Derive(f.Service, bMin, opts)
			if (errO == nil) != (errM == nil) {
				t.Fatalf("existence verdicts differ: original %v, minimized %v", errO, errM)
			}
			if errO != nil {
				return
			}
			// Each converter must be correct for the other environment.
			if err := core.Verify(f.Service, b, min.Converter); err != nil {
				t.Errorf("converter derived over Minimize(B) fails against B: %v", err)
			}
			if err := core.Verify(f.Service, bMin, orig.Converter); err != nil {
				t.Errorf("converter derived over B fails against Minimize(B): %v", err)
			}
			// The maximal converters themselves must be behaviorally equal:
			// their bisimulation quotients have identical shape.
			co, cm := orig.Converter.Minimize(), min.Converter.Minimize()
			if co.NumStates() != cm.NumStates() ||
				co.NumExternalTransitions() != cm.NumExternalTransitions() ||
				co.NumInternalTransitions() != cm.NumInternalTransitions() {
				t.Errorf("minimized converters differ in shape: %d/%d/%d vs %d/%d/%d states/ext/int",
					co.NumStates(), co.NumExternalTransitions(), co.NumInternalTransitions(),
					cm.NumStates(), cm.NumExternalTransitions(), cm.NumInternalTransitions())
			}
			// Options.MinimizeComponents must be exactly the bMin derivation,
			// whichever pipeline carries it.
			viaOpt, err := Derive(f.Service, b, Options{OmitVacuous: true, MinimizeComponents: true})
			if err != nil {
				t.Fatalf("MinimizeComponents derivation failed: %v", err)
			}
			if got, want := viaOpt.Converter.Format(), min.Converter.Format(); got != want {
				t.Errorf("MinimizeComponents output differs from explicit Minimize(B) derivation\ngot:\n%.400s\nwant:\n%.400s", got, want)
			}
			// Over a demand-driven composition the option minimizes each
			// component and recomposes, so it must equal deriving over the
			// composition of the minimized components, and the result must
			// still be correct for the unreduced B. The family's components
			// are already minimal, so the first one gets a redundant initial
			// state to give the reduction something to remove.
			comps := append([]*Spec{withInitCopy(t, f.Components[0])}, f.Components[1:]...)
			lazy, err := ComposeLazy(comps...)
			if err != nil {
				t.Fatal(err)
			}
			lazyMin, err := ComposeLazy(compose.MinimizeComponents(comps...)...)
			if err != nil {
				t.Fatal(err)
			}
			viaLazyOpt, err := DeriveEnv(f.Service, lazy, Options{OmitVacuous: true, MinimizeComponents: true})
			if err != nil {
				t.Fatalf("MinimizeComponents over a lazy composition failed: %v", err)
			}
			viaLazyMin, err := DeriveEnv(f.Service, lazyMin, opts)
			if err != nil {
				t.Fatalf("derivation over the minimized components failed: %v", err)
			}
			if got, want := viaLazyOpt.Converter.Format(), viaLazyMin.Converter.Format(); got != want {
				t.Errorf("MinimizeComponents over a lazy composition differs from deriving over the minimized components\ngot:\n%.400s\nwant:\n%.400s", got, want)
			}
			// The converter alone cannot tell: its states are numbered, not
			// named after B's. The environment's size can.
			if got, want := viaLazyOpt.Stats.Metrics.EnvStatesTotal, viaLazyMin.Stats.Metrics.EnvStatesTotal; got != want {
				t.Errorf("MinimizeComponents over a lazy composition explored %d environment states, the minimized components %d", got, want)
			}
			if err := core.Verify(f.Service, b, viaLazyOpt.Converter); err != nil {
				t.Errorf("converter derived with MinimizeComponents over a lazy composition fails against B: %v", err)
			}
		})
	}
}

// withInitCopy returns a strongly bisimilar copy of s that starts in a
// fresh state with the initial state's transitions, which minimization
// merges back into the initial state.
func withInitCopy(t *testing.T, s *Spec) *Spec {
	t.Helper()
	b := NewSpec(s.Name() + "'")
	for _, e := range s.Alphabet() {
		b.Event(e)
	}
	fresh := s.StateName(s.Init()) + "'"
	b.Init(fresh)
	for st := 0; st < s.NumStates(); st++ {
		from := []string{s.StateName(State(st))}
		if State(st) == s.Init() {
			from = append(from, fresh)
		}
		for _, f := range from {
			for _, ed := range s.ExtEdges(State(st)) {
				b.Ext(f, ed.Event, s.StateName(ed.To))
			}
			for _, to := range s.IntEdges(State(st)) {
				b.Int(f, s.StateName(to))
			}
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}
