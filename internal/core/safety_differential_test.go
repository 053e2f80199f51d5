package core

import (
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/protocols"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

// deriveOutcome captures the full bit-identity surface of a derivation:
// converter text, stats, existence, and error string. Of the metrics it
// zeroes only what legitimately differs between runs: the wall times, the
// environment expansion time, and the worker count.
func deriveOutcome(t *testing.T, a *spec.Spec, bs []*spec.Spec, opts Options) (string, Stats, bool, string) {
	t.Helper()
	res, err := DeriveRobust(a, bs, opts)
	var text, errs string
	var stats Stats
	var exists bool
	if err != nil {
		errs = err.Error()
	}
	if res != nil {
		exists = res.Exists
		stats = res.Stats
		m := &stats.Metrics
		m.Workers = 0
		m.SafetyWall, m.ProgressWall, m.EnvExpansionNs = 0, 0, 0
		if res.Converter != nil {
			text = res.Converter.Format()
		}
	}
	return text, stats, exists, errs
}

// withSafetyKnobs runs f with the safety-phase package knobs overridden,
// restoring them afterwards. Every combination must be invisible in the
// derivation outcome: the knobs steer storage layout, not results.
func withSafetyKnobs(chunkWords, batch int, f func()) {
	savedChunk, savedBatch := pairArenaChunkWords, safetyMergeBatch
	pairArenaChunkWords, safetyMergeBatch = chunkWords, batch
	defer func() {
		pairArenaChunkWords, safetyMergeBatch = savedChunk, savedBatch
	}()
	f()
}

// TestSafetyDifferential is the bit-identity suite for the parallel safety
// phase: the paper's conversion systems (one with two environment
// variants) and small specgen families derived at every worker count,
// under each storage leg — tiny arena chunks (every chunk-boundary path)
// and a tiny merge batch (many merges per level) — must reproduce the
// reference outcome exactly: converter text, stats, existence verdict,
// and error string. Within a leg, Workers 2 and 4 must also reproduce
// that leg's Workers 1 Metrics, arena bytes and intern counters included;
// across legs the metrics legitimately differ, since the legs steer
// storage layout. The scalar-closure leg compares the mask
// closure with an independent engine: at every worker count,
// CheckClosureReference recomputes h.ε and every φ(J, e) with the per-pair
// reference closure and requires the interned successors to match set for
// set.
func TestSafetyDifferential(t *testing.T) {
	type system struct {
		name string
		a    *spec.Spec
		bs   []*spec.Spec
	}
	systems := []system{
		{"paper-symmetric", protocols.Service(), []*spec.Spec{protocols.SymmetricB()}},
		{"paper-weak-service", protocols.AtLeastOnceService(), []*spec.Spec{protocols.SymmetricB()}},
		{"paper-colocated", protocols.Service(), []*spec.Spec{protocols.ColocatedB()}},
		// Two environment variants: each variant's pairs sit at its own
		// packed-b offset.
		{"deploy-robust", protocols.Service(), protocols.DeploymentEnvs(0)},
	}
	for _, fn := range []string{"chain(4)", "chaindrop(4)", "ring(3)"} {
		fam, err := specgen.ParseFamily(fn)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		systems = append(systems, system{fam.Name, fam.Service, []*spec.Spec{compose.MustMany(fam.Components...)}})
	}

	type leg struct {
		name  string
		chunk int
		batch int
	}
	legs := []leg{
		{"default", pairArenaChunkWords, safetyMergeBatch},
		{"tiny-chunk", 4, safetyMergeBatch},
		{"tiny-batch", pairArenaChunkWords, 2},
	}

	for _, sys := range systems {
		opts := Options{OmitVacuous: true}
		refText, refStats, refExists, refErr := deriveOutcome(t, sys.a, sys.bs, opts)
		refStats.Metrics = Metrics{}
		for _, lg := range legs {
			withSafetyKnobs(lg.chunk, lg.batch, func() {
				var legMetrics Metrics
				for _, workers := range []int{1, 2, 4} {
					o := opts
					o.Workers = workers
					text, stats, exists, errs := deriveOutcome(t, sys.a, sys.bs, o)
					if workers == 1 {
						legMetrics = stats.Metrics
					} else if stats.Metrics != legMetrics {
						t.Errorf("%s leg=%s workers=%d metrics differ from workers=1:\n%+v\n--- vs ---\n%+v",
							sys.name, lg.name, workers, stats.Metrics, legMetrics)
					}
					stats.Metrics = Metrics{}
					if text != refText || stats != refStats || exists != refExists || errs != refErr {
						t.Errorf("%s leg=%s workers=%d diverges from reference:\n%s\nstats %+v exists=%v err %q\n--- vs ---\n%s\nstats %+v exists=%v err %q",
							sys.name, lg.name, workers,
							text, stats, exists, errs, refText, refStats, refExists, refErr)
					}
				}
			})
		}
		envs := make([]Environment, len(sys.bs))
		for i, b := range sys.bs {
			envs[i] = b
		}
		for _, workers := range []int{1, 2, 4} {
			o := opts
			o.Workers = workers
			if _, err := CheckClosureReference(sys.a, envs, o); err != nil {
				t.Errorf("%s leg=scalar-closure workers=%d: %v", sys.name, workers, err)
			}
		}
	}
}
