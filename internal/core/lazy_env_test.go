package core

import (
	"context"
	"strings"
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

// lazyRelaySystem returns a known-derivable multi-component system (the
// specgen chain family, the same fixture the golden suites pin).
func lazyRelaySystem(t *testing.T) (*spec.Spec, []*spec.Spec) {
	t.Helper()
	f := specgen.Chain(2)
	return f.Service, f.Components
}

// TestLazyEnvMetricsWiring checks that a demand-driven derivation reports
// the environment expansion metrics through Result.Stats.Metrics.
func TestLazyEnvMetricsWiring(t *testing.T) {
	a, comps := lazyRelaySystem(t)
	lz, err := compose.LazyMany(comps...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DeriveEnv(a, lz, Options{})
	if err != nil {
		t.Fatalf("DeriveEnv: %v", err)
	}
	m := res.Stats.Metrics
	if m.EnvStatesTotal <= 0 {
		t.Fatalf("EnvStatesTotal = %d, want > 0", m.EnvStatesTotal)
	}
	if m.EnvStatesExpanded <= 0 || m.EnvStatesExpanded > m.EnvStatesTotal {
		t.Fatalf("EnvStatesExpanded = %d, want in 1..%d", m.EnvStatesExpanded, m.EnvStatesTotal)
	}
	// The deriver's final metrics must agree with the environment's own
	// counters after the run.
	exp, disc, ns := lz.ExpansionStats()
	if m.EnvStatesExpanded != exp || m.EnvStatesTotal != disc {
		t.Fatalf("metrics report %d/%d, environment reports %d/%d",
			m.EnvStatesExpanded, m.EnvStatesTotal, exp, disc)
	}
	if m.EnvExpansionNs != ns {
		t.Fatalf("EnvExpansionNs = %d, environment reports %d", m.EnvExpansionNs, ns)
	}
	// The expansion time is estimated from a sample of the expansions;
	// chain(2)'s 64 make up one sampling period, so one of them is timed.
	if exp != 64 || m.EnvExpansionNs <= 0 {
		t.Fatalf("%d expansions estimated at %dns, want 64 at more than 0", exp, m.EnvExpansionNs)
	}
}

// TestLazyEnvEagerMetricsReportSaturation pins the eager-environment side of
// the same metrics: a *Spec environment is fully materialized, so expanded
// and total must both equal its state count.
func TestLazyEnvEagerMetricsReportSaturation(t *testing.T) {
	a := altService(t)
	b := relayB(t)
	res, err := Derive(a, b, Options{})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	m := res.Stats.Metrics
	if m.EnvStatesExpanded != b.NumStates() || m.EnvStatesTotal != b.NumStates() {
		t.Fatalf("eager environment reports %d/%d expanded/total, want %d/%d",
			m.EnvStatesExpanded, m.EnvStatesTotal, b.NumStates(), b.NumStates())
	}
	if m.EnvExpansionNs != 0 {
		t.Fatalf("eager environment reports %dns of demand expansion, want 0", m.EnvExpansionNs)
	}
}

// TestLazyEnvRejectsMultipleVariants: the pair encoding needs every
// variant's state count before the safety phase starts, so a demand-driven
// environment cannot participate in a robust (multi-variant) derivation.
func TestLazyEnvRejectsMultipleVariants(t *testing.T) {
	a, comps := lazyRelaySystem(t)
	lz, err := compose.LazyMany(comps...)
	if err != nil {
		t.Fatal(err)
	}
	lz2, err := compose.LazyMany(comps...)
	if err != nil {
		t.Fatal(err)
	}
	_, err = DeriveEnvsContext(context.Background(), a, []Environment{lz, lz2}, Options{})
	if err == nil || !strings.Contains(err.Error(), "cannot be combined with other variants") {
		t.Fatalf("expected demand-driven multi-variant rejection, got %v", err)
	}
}

// TestLazyEnvWorkerInvariance is the core-level counterpart of the golden
// lazy suites: the derivation outcome over a demand-driven environment is
// identical at every worker count, even though demand order differs.
func TestLazyEnvWorkerInvariance(t *testing.T) {
	a, comps := lazyRelaySystem(t)
	var base string
	var baseStats Stats
	for _, w := range []int{1, 2, 4, 7} {
		lz, err := compose.LazyMany(comps...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := DeriveEnv(a, lz, Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		text := res.Converter.Format()
		stats := res.Stats
		stats.Metrics = Metrics{} // wall times legitimately differ
		if w == 1 {
			base, baseStats = text, stats
			continue
		}
		if text != base {
			t.Errorf("workers=%d converter differs:\n%s\n--- vs ---\n%s", w, text, base)
		}
		if stats != baseStats {
			t.Errorf("workers=%d stats %+v differ from %+v", w, stats, baseStats)
		}
	}
}
