package compose_test

import (
	"path/filepath"
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/protocols"
	"protoquot/internal/protosmith"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

// TestManyMatchesPairwiseFoldOnSystems runs the composition comparison
// (assertLazyMatchesMany: Many and LazyMany against oracle.Compose, and
// Many's numbering against a second Many) over the paper's systems, the
// specgen chain, chaindrop and ring families, and the protosmith fixtures
// under testdata/protosmith.
func TestManyMatchesPairwiseFoldOnSystems(t *testing.T) {
	win, err := protocols.WindowToNSBComponents(protocols.WindowConfig{Window: 2, Modulus: 3})
	if err != nil {
		t.Fatal(err)
	}
	type system struct {
		name  string
		comps []*spec.Spec
	}
	systems := []system{
		{"ab", []*spec.Spec{protocols.ABSender(), protocols.ABChannel(), protocols.ABReceiver()}},
		{"ns", []*spec.Spec{protocols.NSSender(), protocols.NSChannel(), protocols.NSReceiver()}},
		{"symmetric", protocols.SymmetricBComponents()},
		{"colocated", protocols.ColocatedBComponents()},
		{"figure17-transport", []*spec.Spec{protocols.TransportA(), protocols.NetA(false), protocols.NetB(), protocols.TransportB()}},
		{"figure18-transport", protocols.TransportB18Components()},
		{"window2-ns", win},
	}
	for _, name := range []string{
		"chain(2)", "chain(3)", "chain(4)", "chain(5)", "chain(6)",
		"chaindrop(2)", "chaindrop(3)", "chaindrop(4)",
		"ring(1)", "ring(2)", "ring(3)",
	} {
		fam, err := specgen.ParseFamily(name)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, system{name, fam.Components})
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "protosmith", "*.spec"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("protosmith fixtures: %v (%d found)", err, len(paths))
	}
	for _, path := range paths {
		sys, err := protosmith.LoadFixture(path)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, system{filepath.Base(path), sys.Components})
	}
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			compose.AssertLazyMatchesMany(t, sys.comps...)
		})
	}
}
