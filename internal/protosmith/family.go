package protosmith

import (
	"fmt"

	"protoquot/internal/compose"
	"protoquot/internal/core"
	"protoquot/internal/specgen"
)

// The generated kinds registered with the specgen family registry, so
// quotload and every other ParseFamily consumer can name
// protosmith systems exactly like the hand-written ones:
//
//	rand(n)      — random system, wedges disabled
//	randwedge(n) — random system with WedgeBias forced high, biasing
//	               toward multi-sweep progress removal
//
// Benchmarks and load tests need instances whose quotient actually exists
// (a no-converter verdict is a bench failure, not a measurement), while a
// raw Generate seed carries no such guarantee. Each family instance is
// therefore the first derivable system in a fixed seed scan starting at n —
// deterministic, so rand(7) is the same system everywhere, forever.
func init() {
	specgen.MustRegister("rand", func(n int) (specgen.Family, error) {
		k := DefaultKnobs()
		k.WedgeBias = 0
		return familyOf(fmt.Sprintf("rand(%d)", n), int64(n), k)
	})
	specgen.MustRegister("randwedge", func(n int) (specgen.Family, error) {
		k := DefaultKnobs()
		k.WedgeBias = 0.9
		return familyOf(fmt.Sprintf("randwedge(%d)", n), int64(n), k)
	})
}

func familyOf(name string, base int64, k Knobs) (specgen.Family, error) {
	// A large odd stride keeps the scans for different n disjoint from the
	// plain consecutive seed space the campaign runner walks.
	const stride = 1_000_003
	for try := int64(0); try < 64; try++ {
		sys := Generate(base+try*stride, k)
		if sys.Validate() != nil {
			continue
		}
		b, err := compose.Many(sys.Components...)
		if err != nil {
			continue
		}
		if res, derr := core.Derive(sys.Service, b, core.Options{OmitVacuous: true}); derr == nil && res.Exists {
			return specgen.Family{Name: name, Service: sys.Service, Components: sys.Components}, nil
		}
	}
	return specgen.Family{}, fmt.Errorf("specgen: %s: no derivable system within the seed scan", name)
}
