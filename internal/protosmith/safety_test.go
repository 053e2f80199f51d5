package protosmith

import (
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/core"
)

// TestSafetyAcrossSeeds drives the parallel safety phase through the
// randomized corpus: 50 generated systems, each derived through the
// demand-driven pipeline at every worker count, must reproduce the
// single-worker outcome exactly — converter, verdict, stats, and error
// alike. This is the fuzzed counterpart of core's TestSafetyDifferential,
// which covers the same worker counts on fixed systems with the engine
// knobs forced.
func TestSafetyAcrossSeeds(t *testing.T) {
	const maxStates = 50000
	derive := func(sys *System, workers int) outcome {
		lz, err := compose.LazyMany(sys.Components...)
		if err != nil {
			return outcome{err: err.Error()}
		}
		res, derr := core.DeriveEnv(sys.Service, lz, core.Options{
			OmitVacuous: true, MaxStates: maxStates, Workers: workers,
		})
		return outcomeOf(res, derr)
	}
	for seed := int64(1); seed <= 50; seed++ {
		sys := Generate(seed, DefaultKnobs())
		if err := sys.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref := derive(sys, 1)
		for _, workers := range []int{2, 4} {
			if got := derive(sys, workers); got != ref {
				t.Errorf("seed %d workers=%d diverges:\n%s\n--- vs workers=1 ---\n%s",
					seed, workers, got, ref)
			}
		}
	}
}
