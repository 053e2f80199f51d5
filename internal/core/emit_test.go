package core_test

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

// emitCase is one derivation of the emission differential corpus.
type emitCase struct {
	name string
	a    *spec.Spec
	envs []core.Environment
	opts core.Options
}

// emitCases is the emission differential corpus: every ordered pair of
// specs/ machines, the paper's Figures 14, 17 and 18, chain, chaindrop and
// ring at sizes 2–5 over the demand-driven composition, the first 25
// derivable protosmith systems, and two later protosmith systems that pin
// the Builder order. The paper systems and the protosmith ones run with
// the default options, with OmitVacuous and with SafetyOnly.
func emitCases(t *testing.T) []emitCase {
	t.Helper()
	one := func(b *spec.Spec) []core.Environment { return []core.Environment{b} }
	variants := func(name string, a *spec.Spec, envs []core.Environment) []emitCase {
		return []emitCase{
			{name + "/default", a, envs, core.Options{}},
			{name + "/omit-vacuous", a, envs, core.Options{OmitVacuous: true}},
			{name + "/safety-only", a, envs, core.Options{SafetyOnly: true}},
		}
	}

	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no specs/ fixtures found: %v", err)
	}
	var machines []*spec.Spec
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := dsl.Parse(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		machines = append(machines, ss...)
	}
	var cases []emitCase
	for _, a := range machines {
		for _, b := range machines {
			if a != b {
				// MaxStates bounds the pathological pairs, as the golden sweep does.
				cases = append(cases, emitCase{a.Name() + "/" + b.Name(), a, one(b), core.Options{MaxStates: 3000}})
			}
		}
	}

	cases = append(cases, variants("fig14", protocols.Service(), one(protocols.ColocatedB()))...)
	cases = append(cases, variants("fig17", protocols.CST(), one(protocols.TransportB17()))...)
	cases = append(cases, variants("fig18", protocols.CST(), one(protocols.TransportB18()))...)

	for n := 2; n <= 5; n++ {
		for _, fam := range []specgen.Family{specgen.Chain(n), specgen.ChainDrop(n), specgen.Ring(n)} {
			lz, err := compose.LazyMany(fam.Components...)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, emitCase{fam.Name, fam.Service, []core.Environment{lz}, core.Options{OmitVacuous: true}})
		}
	}

	const want = 25
	found := 0
	for seed := int64(0); seed < 400 && found < want; seed++ {
		gen := protosmith.Generate(seed, protosmith.DefaultKnobs())
		b, err := compose.Many(gen.Components...)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := core.Derive(gen.Service, b, core.Options{OmitVacuous: true, MaxStates: 1 << 16})
		if err != nil || !res.Exists {
			continue
		}
		found++
		cases = append(cases, variants(fmt.Sprintf("protosmith-seed%d", seed), gen.Service, one(b))...)
	}
	if found < want {
		t.Fatalf("only %d derivable protosmith systems in 400 seeds, want %d", found, want)
	}
	// Among the first 3000 seeds, these are the only systems whose converter
	// Trim would number differently if it walked the states in index order
	// instead of the Builder's first-mention order.
	for _, seed := range []int64{2603, 2905} {
		gen := protosmith.Generate(seed, protosmith.DefaultKnobs())
		b, err := compose.Many(gen.Components...)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cases = append(cases, variants(fmt.Sprintf("protosmith-seed%d", seed), gen.Service, one(b))...)
	}
	return cases
}

// TestEmitMatchesBuilderTrim pins the dense converter emitter to the
// Builder + Trim emitter it replaced: on every derivation of the corpus
// that yields a converter, both must give the same Format() text and the
// same Hash(). The corpus must include progress-phase removals and
// safety-only runs.
func TestEmitMatchesBuilderTrim(t *testing.T) {
	compared, removals, safetyOnly := 0, 0, 0
	for _, tc := range emitCases(t) {
		res, ref, err := core.DeriveWithReferenceEmit(tc.a, tc.envs, tc.opts)
		if err != nil || !res.Exists {
			continue
		}
		compared++
		if res.Stats.RemovedStates > 0 {
			removals++
		}
		if tc.opts.SafetyOnly {
			safetyOnly++
		}
		got := res.Converter
		if got.Format() != ref.Format() {
			t.Errorf("%s: dense emission differs from Builder + Trim\n--- dense ---\n%s--- reference ---\n%s",
				tc.name, got.Format(), ref.Format())
			continue
		}
		if got.Hash() != ref.Hash() {
			t.Errorf("%s: hash %s, reference %s", tc.name, got.Hash(), ref.Hash())
		}
	}
	t.Logf("compared %d converters (%d with progress removals, %d safety-only)", compared, removals, safetyOnly)
	if removals == 0 || safetyOnly == 0 {
		t.Errorf("corpus lacks progress removals (%d) or safety-only runs (%d)", removals, safetyOnly)
	}
}
